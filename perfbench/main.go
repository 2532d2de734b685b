// Command perfbench is the repository's benchmark. It runs one of four
// closed-loop workloads, each driven from this one process, through the
// surfaces the co-design engine is used by: pipeline.Prepare, Evaluate and
// Sweep, and the skoped daemon's HTTP API. It checks every output and
// prints, as the last line of standard output, one JSON object with the
// end-to-end metrics or, in a traced run (-trace 1), the per-layer metrics
// taken from spans recorded around the calls into each layer.
//
// run.py builds this command and skoped, then runs it:
//
//	python3 perfbench/run.py --workload characterize --seed 1 --seconds 20 --trace 0
//
// See NOTES.md for why each workload exists and which end-to-end metric
// each per-layer metric should move.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times an untraced run sets its workload up; it
// reports the median and measures against the last one.
const setupReps = 3

// deadline bounds a whole run, build excluded.
const deadline = 170 * time.Second

// workload is one benchmark workload. An op runs one of the five paper
// benchmarks and returns the time of the operation alone: input
// generation and output checks are outside it. A non-nil error is a
// failed check.
type workload interface {
	setup(ctx context.Context) error
	teardown()
	op(ctx context.Context, bench string) (time.Duration, error)
	// tracedOp runs the same operation with a span around every call
	// into a layer.
	tracedOp(ctx context.Context, bench string, tr *tracer) (time.Duration, error)
	// peakRSSMB is the peak resident memory of the process doing the work.
	peakRSSMB() (float64, error)
	// finish runs the checks deferred past the window and returns how many
	// more ops failed them.
	finish(ctx context.Context) (int, error)
	// layers returns the per-layer metrics of a traced run, among them
	// trace.span_coverage: the time the op's layer spans cover over the
	// mean untraced op. untracedMS holds the times of the untraced ops
	// interleaved with the traced ones.
	layers(ctx context.Context, tr *tracer, untracedMS []float64) (map[string]float64, error)
}

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	skoped   string
	workdir  string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// layerMetrics names every per-layer metric with its unit. A traced run
// prints all of them; one whose layer the workload never calls reads 0.
var layerMetrics = []struct{ name, unit string }{
	// characterize: the stages of Prepare and Evaluate, per op.
	{"minilang.parse_ms", "ms"},
	{"interp.profile_ms", "ms"},
	{"interp.steps", "count"},
	{"interp.ns_per_step", "ns"},
	{"interp.share", "ratio"},
	{"translate.ms", "ms"},
	{"bst.ms", "ms"},
	{"core.bet_ms", "ms"},
	{"core.bet_nodes", "count"},
	{"hotspot.analyze_ms", "ms"},
	{"sim.run_ms", "ms"},
	{"sim.share", "ratio"},
	{"pipeline.other_ms", "ms"},
	// explore: the memoized sweep, per variant or per op.
	{"explore.variant_us", "us"},
	{"explore.comp_hit_rate", "ratio"},
	{"explore.comm_hit_rate", "ratio"},
	{"explore.lookups", "count"},
	{"hotspot.select_us", "us"},
	{"hotspot.analyze_naive_us", "us"},
	{"pipeline.sweep_overhead_ms", "ms"},
	// sessions: seen from outside the daemon, per session.
	{"skoped.submit_ms", "ms"},
	{"skoped.results_ms", "ms"},
	{"skoped.lines", "count"},
	{"skoped.stream_kb", "kB"},
	{"store.hits", "count"},
	{"store.misses", "count"},
	{"store.records_added", "count"},
	{"store.kb_added", "kB"},
	{"session.computed", "count"},
	{"session.from_store", "count"},
	{"session.skipped_prepare_frac", "ratio"},
	{"pipeline.prepare_share", "ratio"},
	{"store.get_eval_us", "us"},
	{"store.get_prep_us", "us"},
	{"store.read_share", "ratio"},
	// every workload: what tracing costs and how much of the op it covers.
	{"trace.ratio", "ratio"},
	{"trace.span_coverage", "ratio"},
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "characterize, explore, sessions-novel or sessions-repeat")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.IntVar(&cfg.seconds, "seconds", 20, "length of the measured window, in seconds (whole rounds)")
	flag.IntVar(&cfg.trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.skoped, "skoped", "", "skoped binary, for the session workloads")
	flag.StringVar(&cfg.workdir, "workdir", "", "directory for daemon stores and span files")
	flag.Parse()

	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	res, err := run(ctx, cfg)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func newWorkload(cfg config) (workload, error) {
	in := newInputs(cfg.seed, cfg.workload)
	switch cfg.workload {
	case "characterize":
		return &characterize{}, nil
	case "explore":
		return &sweep{in: in}, nil
	case "sessions-novel", "sessions-repeat":
		if cfg.skoped == "" || cfg.workdir == "" {
			return nil, fmt.Errorf("%s needs -skoped and -workdir", cfg.workload)
		}
		return newSessions(cfg.workload == "sessions-novel", cfg.skoped, cfg.workdir, in), nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

func run(ctx context.Context, cfg config) (*result, error) {
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	traced := cfg.trace == 1
	speedStart, stealStart := hostSpeed(), stealSeconds()

	reps := setupReps
	if traced {
		reps = 1
	}
	var setups []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			w.teardown()
		}
		runtime.GC()
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			w.teardown()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer w.teardown()

	order := newRNG(cfg.seed, "order")
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	var opMS, tracedMS []float64
	benchMS := make(map[string][]float64)
	attempted, failed := 0, 0
	runtime.GC()
	start := time.Now()
	window := time.Duration(cfg.seconds) * time.Second
	var roundS []float64
	untraced := func(b string) {
		d, err := w.op(ctx, b)
		attempted++
		opMS = append(opMS, ms(d))
		benchMS[b] = append(benchMS[b], ms(d))
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s op %d (%s): %v\n", cfg.workload, attempted, b, err)
		}
	}
	tracedOp := func(b string) {
		tr.nextOp()
		d, err := w.tracedOp(ctx, b, tr)
		attempted++
		tracedMS = append(tracedMS, ms(d))
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s traced op %d (%s): %v\n", cfg.workload, attempted, b, err)
		}
	}
	for round := 0; time.Since(start) < window; round++ {
		roundStart := time.Now()
		for _, b := range order.round() {
			switch {
			case !traced:
				untraced(b)
			case round%2 == 0:
				// Alternate which of the pair runs first, so that neither
				// always finds the benchmark's data warm.
				untraced(b)
				tracedOp(b)
			default:
				tracedOp(b)
				untraced(b)
			}
		}
		roundS = append(roundS, time.Since(roundStart).Seconds())
	}
	elapsed := time.Since(start)

	rss, err := w.peakRSSMB()
	if err != nil {
		return nil, fmt.Errorf("peak rss: %w", err)
	}
	late, err := w.finish(ctx)
	if err != nil {
		return nil, fmt.Errorf("deferred checks: %w", err)
	}
	failed += late

	res := &result{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if traced {
		vals, err := w.layers(ctx, tr, opMS)
		if err != nil {
			return nil, fmt.Errorf("layers: %w", err)
		}
		vals["trace.ratio"] = median(tracedMS) / median(opMS)
		for _, m := range layerMetrics {
			res.Metrics[m.name] = metric{Value: vals[m.name], Unit: m.unit}
			delete(vals, m.name)
		}
		for name := range vals {
			return nil, fmt.Errorf("metric %s is not in the per-layer list", name)
		}
		if cfg.workdir != "" {
			path := filepath.Join(cfg.workdir, fmt.Sprintf("spans-%s-%d.json", cfg.workload, cfg.seed))
			if err := tr.write(path); err != nil {
				return nil, err
			}
		}
	} else {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		// Throughput is taken per round and the median reported, so that
		// a burst of host contention moves it less than a whole-window mean.
		res.Metrics["ops_per_s"] = metric{float64(len(benchmarks)) / median(roundS), "1/s"}
		res.Metrics["op_p50_ms"] = metric{quantile(opMS, 0.50), "ms"}
		res.Metrics["op_p90_ms"] = metric{quantile(opMS, 0.90), "ms"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
	}
	res.Correct = res.Failed == 0

	// The host-speed probe, the CPU time stolen by other guests and the
	// per-benchmark medians go beside the metrics, not among them.
	benchP50 := make(map[string]float64, len(benchMS))
	for b, xs := range benchMS {
		benchP50[b] = median(xs)
	}
	probe, _ := json.Marshal(map[string]any{
		"host_speed_miter_per_s": map[string]float64{"start": speedStart, "end": hostSpeed()},
		"host_steal_s":           stealSeconds() - stealStart,
		"ops":                    len(opMS),
		"window_s":               elapsed.Seconds(),
		"setups_s":               setups,
		"bench_p50_ms":           benchP50,
	})
	fmt.Println(string(probe))
	return res, nil
}
