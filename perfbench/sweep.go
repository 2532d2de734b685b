package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"skope/internal/explore"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/pipeline"
	"skope/internal/workloads"
)

// sweep is the explore workload: pipeline.Sweep of a fresh, seeded
// 200-variant grid around BG/Q over a run prepared in setup. No
// interpreter runs during ops.
type sweep struct {
	in   *inputs
	runs map[string]*pipeline.Run
	// hits and misses sum the traced ops' memo-cache counters; compMisses
	// and commMisses split the misses by the grid's axes.
	hits, misses, compMisses, commMisses int
	variants                             int
}

func (s *sweep) setup(ctx context.Context) error {
	s.runs = make(map[string]*pipeline.Run)
	for _, b := range benchmarks {
		run, err := pipeline.PrepareByName(ctx, b, workloads.ScaleTest)
		if err != nil {
			return err
		}
		s.runs[b] = run
	}
	return nil
}

func (s *sweep) teardown() { s.runs = nil }

// grid draws the op's variants and the index of the one checked against
// a direct, unmemoized hotspot.Analyze.
func (s *sweep) grid() ([]explore.Axis, []*hw.Machine, int, error) {
	axes := s.in.exploreAxes()
	g := explore.Grid{Base: hw.BGQ(), Axes: axes}
	vs, err := g.Variants()
	return axes, vs, s.in.r.intn(len(vs)), err
}

func (s *sweep) op(ctx context.Context, bench string) (time.Duration, error) {
	_, vs, k, err := s.grid()
	if err != nil {
		return 0, err
	}
	run := s.runs[bench]
	start := time.Now()
	evals, err := pipeline.Sweep(ctx, run, vs, pipeline.WithWorkers(1))
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	for i, ev := range evals {
		if ev == nil {
			return d, fmt.Errorf("variant %d (%s) has no result", i, vs[i].Name)
		}
	}
	direct, err := hotspot.Analyze(ctx, run.BET, hw.NewModel(vs[k]), run.Libs)
	if err != nil {
		return d, err
	}
	return d, sameAnalysis(evals[k].Analysis, direct)
}

// sameAnalysis checks a memoized analysis against a direct one, bit for
// bit, block by block.
func sameAnalysis(got, want *hotspot.Analysis) error {
	if math.Float64bits(got.TotalTime) != math.Float64bits(want.TotalTime) {
		return fmt.Errorf("%s: swept time %v s, direct %v s", want.Machine.Name, got.TotalTime, want.TotalTime)
	}
	if len(got.Blocks) != len(want.Blocks) {
		return fmt.Errorf("%s: swept %d blocks, direct %d", want.Machine.Name, len(got.Blocks), len(want.Blocks))
	}
	for _, wb := range want.Blocks {
		gb := got.ByID[wb.BlockID]
		if gb == nil || math.Float64bits(gb.T) != math.Float64bits(wb.T) {
			return fmt.Errorf("%s: block %s differs from the direct analysis", want.Machine.Name, wb.BlockID)
		}
	}
	return nil
}

// tracedOp runs the sweep on the exploration engine directly, then the
// hot-spot selection pipeline.Sweep adds to each variant, then the
// unmemoized reference analysis, each under its own span.
func (s *sweep) tracedOp(ctx context.Context, bench string, tr *tracer) (time.Duration, error) {
	axes, vs, k, err := s.grid()
	if err != nil {
		return 0, err
	}
	run := s.runs[bench]
	start := time.Now()
	end := tr.begin("explore.new")
	eng, err := explore.New(run.BET, run.Libs, explore.Workers(1))
	end()
	if err != nil {
		return time.Since(start), err
	}
	end = tr.begin("explore.sweep")
	as, err := eng.Sweep(ctx, vs)
	end()
	if err != nil {
		return time.Since(start), err
	}
	end = tr.begin("hotspot.select")
	crit := hotspot.DefaultCriteria()
	for _, a := range as {
		hotspot.Select(a, crit)
	}
	end()
	d := time.Since(start)

	end = tr.begin("hotspot.analyze_naive")
	direct, err := hotspot.Analyze(ctx, run.BET, hw.NewModel(vs[k]), run.Libs)
	end()
	if err != nil {
		return d, err
	}
	// One sequential sweep misses once per distinct compute key (memory
	// bandwidth x clock) and once per distinct latency.
	st := eng.CacheStats()
	comp, comm := len(axes[0].Values)*len(axes[1].Values), len(axes[2].Values)
	if st.Misses != comp+comm || st.Hits+st.Misses != 2*len(vs) {
		return d, fmt.Errorf("cache stats %+v, want %d misses in %d lookups", st, comp+comm, 2*len(vs))
	}
	s.hits += st.Hits
	s.misses += st.Misses
	s.compMisses += comp
	s.commMisses += comm
	s.variants += len(vs)
	return d, sameAnalysis(as[k], direct)
}

func (s *sweep) peakRSSMB() (float64, error)             { return peakRSSMB("self") }
func (s *sweep) finish(ctx context.Context) (int, error) { return 0, nil }

func (s *sweep) layers(ctx context.Context, tr *tracer, untracedMS []float64) (map[string]float64, error) {
	n := float64(tr.count("explore.sweep"))
	variants := float64(s.variants)
	lookups := float64(s.hits + s.misses)
	engine := ms(tr.total("explore.new")+tr.total("explore.sweep")+tr.total("hotspot.select")) / n
	return map[string]float64{
		"explore.variant_us":         ms(tr.total("explore.sweep")) * 1e3 / variants,
		"explore.comp_hit_rate":      1 - float64(s.compMisses)/(lookups/2),
		"explore.comm_hit_rate":      1 - float64(s.commMisses)/(lookups/2),
		"explore.lookups":            lookups / n,
		"hotspot.select_us":          ms(tr.total("hotspot.select")) * 1e3 / variants,
		"hotspot.analyze_naive_us":   ms(tr.total("hotspot.analyze_naive")) * 1e3 / n,
		"pipeline.sweep_overhead_ms": mean(untracedMS) - engine,
		"trace.span_coverage":        engine / mean(untracedMS),
	}, nil
}
