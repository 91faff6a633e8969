package core

// The scorer constants, for the external tests that walk its arc.
const (
	GrayMinSamples = grayMinSamples
	GrayDrainScore = grayDrainScore
)
