package dataset

// The external tests build their fixtures with packages that import this
// one (datagen, the default blocker), so they reach these through here.
var (
	OracleHardestNonMatches = oracleHardestNonMatches
	HardestNonMatchesScored = hardestNonMatches
)
