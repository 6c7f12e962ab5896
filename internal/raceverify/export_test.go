package raceverify

// KeepDoomedHolds returns a copy of v with the doomed-hold proof off.
func KeepDoomedHolds(v *Verifier) *Verifier {
	c := *v
	c.keepDoomed = true
	return &c
}

// FromStepZero returns a copy of v that runs every attempt from step 0
// on its own machine instead of resuming it from a shared prefix.
func FromStepZero(v *Verifier) *Verifier {
	c := *v
	c.fromStart = true
	return &c
}

// WatchEveryInstruction returns a copy of v whose machines watch every
// instruction, so its breakpoints are called at every step.
func WatchEveryInstruction(v *Verifier) *Verifier {
	c := *v
	c.watchEvery = true
	return &c
}
