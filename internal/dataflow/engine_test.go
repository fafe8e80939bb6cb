package dataflow_test

import (
	"context"
	"fmt"
	"os"
	"reflect"
	"testing"

	"blazes/internal/dataflow"
	"blazes/internal/topogen"
)

// generated builds a topogen.Default topology of n components.
func generated(t *testing.T, n int, seed int64) *dataflow.Graph {
	t.Helper()
	res, err := topogen.Generate(topogen.Default(n, seed))
	if err != nil {
		t.Fatal(err)
	}
	g, err := res.Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestIncrementalMatchesFreshOnPaperGraphs checks a fresh engine pass over
// the built-in graphs and generated 1k topologies against the reference
// propagation.
func TestIncrementalMatchesFreshOnPaperGraphs(t *testing.T) {
	graphs := []*dataflow.Graph{
		dataflow.WordcountTopology(false),
		dataflow.WordcountTopology(true),
		dataflow.AdNetwork(dataflow.THRESH),
		dataflow.AdNetwork(dataflow.CAMPAIGN, "campaign"),
	}
	for seed := int64(1); seed <= 3; seed++ {
		graphs = append(graphs, generated(t, 1000, seed))
	}
	ctx := context.Background()
	for _, g := range graphs {
		inc := dataflow.NewIncremental(g.Clone())
		a, _, err := inc.Analyze(ctx)
		if err != nil {
			t.Fatalf("%s: %v", g.Name, err)
		}
		ref, err := dataflow.ReferenceAnalyze(inc.Graph())
		if err != nil {
			t.Fatal(err)
		}
		dataflow.FullEqual(t, g.Name, a, ref)
	}
}

// referenceRepair is the analyze–synthesize–apply loop on fresh graphs and
// the reference propagation: every round clones the graph and re-derives
// everything.
func referenceRepair(g *dataflow.Graph, opts dataflow.SynthesisOptions) (*dataflow.Analysis, []dataflow.Strategy, error) {
	var all []dataflow.Strategy
	cur := g
	for i := 0; i <= len(g.Components()); i++ {
		a, err := dataflow.ReferenceAnalyze(cur)
		if err != nil {
			return nil, nil, err
		}
		st := dataflow.Synthesize(a, opts)
		if len(st) == 0 {
			return a, all, nil
		}
		all = append(all, st...)
		cur = dataflow.Apply(cur, st)
	}
	a, err := dataflow.ReferenceAnalyze(cur)
	return a, all, err
}

// TestRepairMatchesReference: Repair on one engine applies the same
// strategies in the same order and ends at the same derivation as the
// reference loop, re-analyzes every round after the first without a
// structural rebuild, and leaves the caller's graph untouched. The 10k
// tier runs under BLAZES_SCALE_FULL=1.
func TestRepairMatchesReference(t *testing.T) {
	sizes := []int{1000}
	if os.Getenv("BLAZES_SCALE_FULL") != "" {
		sizes = append(sizes, 10_000)
	}
	optSets := []dataflow.SynthesisOptions{{}, {PreferSequencing: true}}
	for _, name := range dataflow.StrategyNames() {
		optSets = append(optSets, dataflow.SynthesisOptions{Strategy: name})
	}
	for _, n := range sizes {
		for seed := int64(1); seed <= 3; seed++ {
			g := generated(t, n, seed)
			before, err := dataflow.ReferenceAnalyze(g)
			if err != nil {
				t.Fatal(err)
			}
			beforeExplain := before.Explain()
			coord := map[string]dataflow.Coordination{}
			for _, c := range g.Components() {
				coord[c.Name] = c.Coordination
			}
			for _, opts := range optSets {
				tag := fmt.Sprintf("%d/s%d/%+v", n, seed, opts)
				want, wantSts, err := referenceRepair(g, opts)
				if err != nil {
					t.Fatalf("%s: reference: %v", tag, err)
				}
				got, gotSts, passes, err := dataflow.RepairPasses(g, opts)
				if err != nil {
					t.Fatalf("%s: %v", tag, err)
				}
				if !reflect.DeepEqual(gotSts, wantSts) {
					t.Fatalf("%s: strategies differ:\n got: %v\nwant: %v", tag, gotSts, wantSts)
				}
				if got.Explain() != want.Explain() {
					t.Fatalf("%s: final derivation differs", tag)
				}
				for i, st := range passes[1:] {
					if st.Rebuilt {
						t.Fatalf("%s: pass %d rebuilt the structure", tag, i+1)
					}
				}
				after, err := dataflow.ReferenceAnalyze(g)
				if err != nil {
					t.Fatal(err)
				}
				if after.Explain() != beforeExplain {
					t.Fatalf("%s: Repair mutated the caller's graph", tag)
				}
				for _, c := range g.Components() {
					if c.Coordination != coord[c.Name] {
						t.Fatalf("%s: Repair changed the caller's %s coordination", tag, c.Name)
					}
				}
			}
		}
	}
}
