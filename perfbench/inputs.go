package main

import (
	"hash/fnv"
	"sort"
	"strconv"
	"strings"

	"skope/internal/explore"
)

// benchmarks are the paper's five workloads. Every op runs one of them,
// and a run is whole rounds of all five, so the mix is identical in every
// run and each reported percentile falls inside one benchmark's group.
var benchmarks = []string{"sord", "chargei", "srad", "cfd", "stassuij"}

// The session grid: 4 memory bandwidths x 3 clocks x 5 network latencies
// is the 60-variant base grid. One more latency adds 12 variants.
var (
	sessionBandwidths = []float64{14, 28, 42, 56}
	sessionClocks     = []float64{1.2, 1.6, 2}
	sessionLatencies  = []float64{1, 2, 3, 4, 5}
)

// rng is splitmix64: small, fast and the same on every platform.
type rng struct{ s uint64 }

// newRNG seeds a stream; different stream names give independent streams
// for the same seed.
func newRNG(seed int64, stream string) *rng {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return &rng{s: uint64(seed) ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// round returns the five benchmarks in a seeded order: one round of ops.
func (r *rng) round() []string {
	out := append([]string(nil), benchmarks...)
	for i := len(out) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// distinct draws n distinct values lo + k*step with k in [0, span),
// sorted ascending.
func (r *rng) distinct(n int, lo, step float64, span int) []float64 {
	seen := make(map[int]bool, n)
	out := make([]float64, 0, n)
	for len(out) < n {
		k := r.intn(span)
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, lo+float64(k)*step)
	}
	sort.Float64s(out)
	return out
}

// inputs is a workload's seeded input stream. The same seed gives the
// same sequence of grids and latencies.
type inputs struct {
	r *rng
	// usedLatencies holds every novel latency handed out, so none repeats
	// within a run: a repeated value would turn a novel session warm.
	usedLatencies map[float64]bool
}

func newInputs(seed int64, workload string) *inputs {
	return &inputs{r: newRNG(seed, workload), usedLatencies: make(map[float64]bool)}
}

// exploreAxes draws a fresh 200-variant grid: 4 memory bandwidths x 5
// clocks x 10 network latencies, all distinct within their axis. The
// first two axes set the compute characterization (20 distinct keys),
// the last one the communication characterization (10 keys).
func (in *inputs) exploreAxes() []explore.Axis {
	return []explore.Axis{
		{Param: "mem-bandwidth", Values: in.r.distinct(4, 8, 0.25, 224)},
		{Param: "freq-ghz", Values: in.r.distinct(5, 1, 0.01, 200)},
		{Param: "net-latency-us", Values: in.r.distinct(10, 0.5, 0.05, 400)},
	}
}

// novelLatency returns a network latency in [6, 100) us, on a 1/1024 us
// grid, that no earlier call on this stream returned and that is not in
// the base grid.
func (in *inputs) novelLatency() float64 {
	for {
		v := 6 + float64(in.r.intn(94*1024))/1024
		if !in.usedLatencies[v] {
			in.usedLatencies[v] = true
			return v
		}
	}
}

// sessionAxes returns the sweep specs of a session: the base grid with
// the extra latencies appended to its latency axis.
func sessionAxes(extra ...float64) []string {
	return []string{
		axisSpec("mem-bandwidth", sessionBandwidths),
		axisSpec("freq-ghz", sessionClocks),
		axisSpec("net-latency-us", append(append([]float64(nil), sessionLatencies...), extra...)),
	}
}

func axisSpec(param string, values []float64) string {
	parts := make([]string, len(values))
	for i, v := range values {
		parts[i] = strconv.FormatFloat(v, 'g', -1, 64)
	}
	return param + "=" + strings.Join(parts, ",")
}
