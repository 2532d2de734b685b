package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"skope/internal/bst"
	"skope/internal/core"
	"skope/internal/guard"
	"skope/internal/hotspot"
	"skope/internal/hw"
	"skope/internal/interp"
	"skope/internal/libmodel"
	"skope/internal/minilang"
	"skope/internal/pipeline"
	"skope/internal/profile"
	"skope/internal/sim"
	"skope/internal/translate"
	"skope/internal/workloads"
)

// pinned holds one benchmark's deterministic outputs on BG/Q at
// workloads.ScaleTest. Floats are compared as bits.
type pinned struct {
	betNodes    int
	interpSteps int64
	simSteps    int64
	simCycles   uint64
	quality     uint64
	totalTime   uint64
}

// pins are the outputs of `skope -bench <name> -machine bgq` at the commit
// that defined this benchmark. A change that only makes the engine faster
// must leave every one of them bit-identical.
var pins = map[string]pinned{
	"sord":     {betNodes: 109, interpSteps: 411084, simSteps: 411084, simCycles: 0x4145681420000000, quality: 0x3fefaed34cd3a51b, totalTime: 0x3f5fd097853f7df2},
	"chargei":  {betNodes: 51, interpSteps: 527071, simSteps: 527071, simCycles: 0x41516211a0000000, quality: 0x3ff0000000000000, totalTime: 0x3f60a87ea2bde1df},
	"srad":     {betNodes: 41, interpSteps: 365245, simSteps: 365245, simCycles: 0x4151b921e0000000, quality: 0x3feffce95dd15733, totalTime: 0x3f5fd5f15ba9d471},
	"cfd":      {betNodes: 48, interpSteps: 1194039, simSteps: 1194039, simCycles: 0x4165a35c90000000, quality: 0x3fefca19771f7b3e, totalTime: 0x3f6fd6c9930c1b61},
	"stassuij": {betNodes: 41, interpSteps: 1189330, simSteps: 1189330, simCycles: 0x4150781af0000000, quality: 0x3fedc70cbde645b5, totalTime: 0x3f75f0dd6b286ada},
}

// checkPinned compares one op's outputs with the pinned ones; interpSteps
// < 0 skips the interpreter's own count (the untraced op cannot see it).
func checkPinned(bench string, betNodes int, interpSteps, simSteps int64, simCycles, quality, totalTime float64) error {
	p, ok := pins[bench]
	if !ok {
		return fmt.Errorf("no pinned outputs for %s", bench)
	}
	switch {
	case betNodes != p.betNodes:
		return fmt.Errorf("BET has %d nodes, pinned %d", betNodes, p.betNodes)
	case interpSteps >= 0 && interpSteps != p.interpSteps:
		return fmt.Errorf("profiling run took %d steps, pinned %d", interpSteps, p.interpSteps)
	case simSteps != p.simSteps:
		return fmt.Errorf("simulation took %d steps, pinned %d", simSteps, p.simSteps)
	case math.Float64bits(simCycles) != p.simCycles:
		return fmt.Errorf("simulated %v cycles, pinned %v", simCycles, math.Float64frombits(p.simCycles))
	case math.Float64bits(quality) != p.quality:
		return fmt.Errorf("selection quality %v, pinned %v", quality, math.Float64frombits(p.quality))
	case math.Float64bits(totalTime) != p.totalTime:
		return fmt.Errorf("projected time %v s, pinned %v s", totalTime, math.Float64frombits(p.totalTime))
	}
	return nil
}

// characterize is the new-application path: a cold pipeline.Prepare of
// the benchmark, then pipeline.Evaluate on BG/Q, which projects and
// simulates it. No cache or store is involved.
type characterize struct {
	wls     map[string]*workloads.Workload
	machine *hw.Machine
	// steps and nodes sum the traced ops' interpreter steps and BET sizes.
	steps, nodes int64
}

// warmup is the benchmark whose op setup runs once, so that the heap and
// the lazily built tables are in place before the window.
const warmup = "srad"

func (c *characterize) setup(ctx context.Context) error {
	c.wls = make(map[string]*workloads.Workload)
	for _, b := range benchmarks {
		w, err := workloads.Get(b, workloads.ScaleTest)
		if err != nil {
			return err
		}
		c.wls[b] = w
	}
	c.machine = hw.BGQ()
	if _, err := c.op(ctx, warmup); err != nil {
		return fmt.Errorf("warm-up %s: %w", warmup, err)
	}
	return nil
}

func (c *characterize) teardown() { c.wls = nil }

func (c *characterize) op(ctx context.Context, bench string) (time.Duration, error) {
	start := time.Now()
	run, err := pipeline.Prepare(ctx, c.wls[bench])
	if err != nil {
		return time.Since(start), err
	}
	ev, err := pipeline.Evaluate(ctx, run, c.machine)
	d := time.Since(start)
	if err != nil {
		return d, err
	}
	return d, checkPinned(bench, run.BET.NumNodes(), -1, ev.Sim.Steps, ev.Sim.TotalCycles, ev.Quality, ev.Analysis.TotalTime)
}

// tracedOp replays the public stage calls Prepare and Evaluate make, with
// a span around each, and must reproduce the untraced outputs exactly.
func (c *characterize) tracedOp(ctx context.Context, bench string, tr *tracer) (time.Duration, error) {
	w := c.wls[bench]
	start := time.Now()
	end := tr.begin("minilang.parse")
	prog, err := minilang.ParseWithLimits(w.Name, w.Source, nil)
	if err == nil {
		err = minilang.Check(prog)
	}
	end()
	if err != nil {
		return time.Since(start), err
	}
	end = tr.begin("interp.profile")
	profiler := interp.NewProfiler()
	eng, err := interp.New(prog, &interp.Options{Observer: profiler, Seed: w.Seed})
	if err == nil {
		err = eng.Run()
	}
	end()
	if err != nil {
		return time.Since(start), err
	}
	end = tr.begin("translate")
	sk, err := translate.Translate(prog, profiler.P)
	end()
	if err != nil {
		return time.Since(start), err
	}
	end = tr.begin("bst")
	tree, err := bst.Build(sk.Prog)
	end()
	if err != nil {
		return time.Since(start), err
	}
	end = tr.begin("core.bet")
	lim := guard.Default()
	bet, err := core.Build(ctx, tree, sk.Input, &core.Options{MaxContexts: lim.MaxContexts, MaxNodes: lim.MaxBETNodes})
	end()
	if err != nil {
		return time.Since(start), err
	}
	end = tr.begin("libmodel")
	libs, err := libmodel.Default()
	end()
	if err != nil {
		return time.Since(start), err
	}
	end = tr.begin("hotspot.analyze")
	a, err := hotspot.Analyze(ctx, bet, hw.NewModel(c.machine), libs)
	end()
	if err != nil {
		return time.Since(start), err
	}
	end = tr.begin("hotspot.select")
	hotspot.Select(a, hotspot.DefaultCriteria())
	end()
	end = tr.begin("sim.run")
	res, err := sim.Run(ctx, prog, c.machine, &sim.Options{Seed: w.Seed})
	end()
	if err != nil {
		return time.Since(start), err
	}
	end = tr.begin("profile.quality")
	quality := profile.SelectionQuality(profile.FromSim(res), profile.FromAnalysis(a).TopIDs(10))
	end()
	d := time.Since(start)
	c.steps += eng.Steps()
	c.nodes += int64(bet.NumNodes())
	return d, checkPinned(bench, bet.NumNodes(), eng.Steps(), res.Steps, res.TotalCycles, quality, a.TotalTime)
}

func (c *characterize) peakRSSMB() (float64, error)             { return peakRSSMB("self") }
func (c *characterize) finish(ctx context.Context) (int, error) { return 0, nil }

func (c *characterize) layers(ctx context.Context, tr *tracer, untracedMS []float64) (map[string]float64, error) {
	n := float64(tr.count("interp.profile"))
	perOp := func(name string) float64 { return ms(tr.total(name)) / n }
	op := ms(tr.topLevel()) / n
	interpMS := perOp("interp.profile")
	return map[string]float64{
		"minilang.parse_ms":   perOp("minilang.parse"),
		"interp.profile_ms":   interpMS,
		"interp.steps":        float64(c.steps) / n,
		"interp.ns_per_step":  interpMS * 1e6 / (float64(c.steps) / n),
		"interp.share":        interpMS / op,
		"translate.ms":        perOp("translate"),
		"bst.ms":              perOp("bst"),
		"core.bet_ms":         perOp("core.bet"),
		"core.bet_nodes":      float64(c.nodes) / n,
		"hotspot.analyze_ms":  perOp("hotspot.analyze"),
		"hotspot.select_us":   perOp("hotspot.select") * 1e3,
		"sim.run_ms":          perOp("sim.run"),
		"sim.share":           perOp("sim.run") / op,
		"pipeline.other_ms":   mean(untracedMS) - op,
		"trace.span_coverage": op / mean(untracedMS),
	}, nil
}
