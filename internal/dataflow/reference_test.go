package dataflow

import (
	"fmt"

	"blazes/internal/core"
)

// referenceAnalyze is an independent, memo-free label propagation: one
// deriveOutput per output interface in topological order, each stamped
// straight onto its streams and appended to its component's record. The
// engine tests compare Incremental.Analyze (and so Analyze and Repair)
// against it, so the engine is never checked only against itself.
func referenceAnalyze(g *Graph) (*Analysis, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	cg, _ := collapseSCCs(g)
	if cg != g {
		if err := cg.Validate(); err != nil {
			return nil, fmt.Errorf("dataflow: internal error: collapsed graph invalid: %w", err)
		}
	}
	a := &Analysis{
		Graph:        g,
		Collapsed:    cg,
		StreamLabels: map[string]core.Label{},
		Components:   map[string]*ComponentAnalysis{},
	}
	for _, s := range cg.Streams() {
		if s.IsSource() {
			a.StreamLabels[s.Name] = sourceLabel(s)
		}
	}
	idx := indexStreams(cg)
	for _, node := range outputTopoOrder(cg) {
		comp := cg.Lookup(node.comp)
		ca := a.Components[comp.Name]
		if ca == nil {
			ca = &ComponentAnalysis{
				Name:            comp.Name,
				Reconciliations: map[string]core.Reconciliation{},
				OutputLabels:    map[string]core.Label{},
			}
			a.Components[comp.Name] = ca
		}
		outReps := false
		for _, s := range idx.outOf[[2]string{comp.Name, node.iface}] {
			outReps = outReps || s.Rep
		}
		in := gatherInputs(nil, comp, node.iface, idx, a.StreamLabels)
		steps, rec, out := deriveOutput(comp, node.iface, idx, in, outReps)
		ca.Steps = append(ca.Steps, steps...)
		ca.Reconciliations[node.iface] = rec
		ca.OutputLabels[node.iface] = rec.Output
		for _, s := range idx.outOf[[2]string{comp.Name, node.iface}] {
			a.StreamLabels[s.Name] = out
		}
	}
	a.Verdict = a.verdict(cg)
	return a, nil
}
