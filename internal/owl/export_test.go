package owl

// RerunAdhoc returns opts with the ad-hoc stage's reference switched
// on: detection re-runs under the mined annotations instead of the raw
// reports being filtered. In predict mode the reference's confirm
// replays run unannotated detectors, so it drops the suppressed pairs
// they add; its PredictedConfirmed may then name a suppressed pair.
func RerunAdhoc(opts Options) Options {
	opts.rerunAdhoc = true
	return opts
}
