package pipeline

import (
	"context"
	"fmt"

	"skope/internal/explore"
	"skope/internal/hw"
)

// SweepAdaptive is Sweep's surrogate-guided sibling: instead of
// evaluating every variant, it runs explore.Engine.Adaptive over the grid
// — seed sample, surrogate fit, ranked acquisition rounds — and evaluates
// only the variants the search chose. Every evaluation still flows
// through the exploration engine, so WithJournal, WithStore, WithRetry,
// WithVariantTimeout, WithMinConfidence and WithProgress compose exactly
// as in an exhaustive sweep; round traces arrive on the progress callback
// (Progress.Adaptive) and on aopt.OnRound.
//
// variants must be the materialized grid of axes in explore.Grid.Variants
// order. The returned Evals are index-aligned with the grid, nil where the
// search never evaluated (the common case — typically ≥95% of the grid);
// the AdaptiveResult carries the incumbent, the eval spend, and the round
// trace. Failed variants come back aggregated like Sweep's; cancellation
// returns nil results and the wrapped context error.
//
// Exhaustive Sweep remains the golden reference: the adaptive optimum is
// an exact engine evaluation, but only exhaustive mode proves it global.
func SweepAdaptive(ctx context.Context, run *Run, variants []*hw.Machine, axes []explore.Axis, aopt explore.AdaptiveOptions, opts ...Option) ([]*Eval, *explore.AdaptiveResult, error) {
	o := buildOptions(opts)
	eng, err := newEngine(run, o)
	if err != nil {
		return nil, nil, err
	}
	res, aerr := eng.Adaptive(ctx, variants, axes, aopt)
	if res == nil {
		return nil, nil, fmt.Errorf("pipeline: adaptive sweep %s: %w", run.Workload.Name, aerr)
	}
	evals := make([]*Eval, len(variants))
	for i, r := range res.Results {
		if r.Machine == nil || r.Analysis == nil {
			continue
		}
		evals[i] = sweepEval(run.Diagnostics, run.Confidence, r, o.crit)
	}
	if aerr != nil {
		return evals, res, fmt.Errorf("pipeline: adaptive sweep %s: %w", run.Workload.Name, aerr)
	}
	return evals, res, nil
}
