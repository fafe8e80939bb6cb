package dataflow

// Test-only exports for engine_test.go, which imports topogen (itself an
// importer of this package) and so lives in package dataflow_test.
var (
	ReferenceAnalyze = referenceAnalyze
	FullEqual        = fullEqual
)

// RepairPasses runs Repair and also returns the Stats of every analysis
// pass, in order.
func RepairPasses(g *Graph, opts SynthesisOptions) (*Analysis, []Strategy, []Stats, error) {
	var passes []Stats
	a, sts, err := repair(g, opts, func(s Stats) { passes = append(passes, s) })
	return a, sts, passes, err
}
