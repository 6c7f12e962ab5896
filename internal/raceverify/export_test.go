package raceverify

// KeepDoomedHolds returns a copy of v with the doomed-hold proof off.
func KeepDoomedHolds(v *Verifier) *Verifier {
	c := *v
	c.keepDoomed = true
	return &c
}
