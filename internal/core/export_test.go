package core

// The FreeQ differential lives in package core_test, since freeq imports
// this package; these names hand it the reference and the demo data.
var (
	MaterializeReference = materializeReference
	ForEachDemoQuery     = forEachDemoQuery
	SameScored           = sameScored
)

type DemoDataset = demoDataset
