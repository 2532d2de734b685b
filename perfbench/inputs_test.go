package main

import (
	"reflect"
	"sort"
	"testing"

	"skope/internal/explore"
	"skope/internal/hw"
)

// draw takes a fixed sequence of every kind of input from one stream.
func draw(seed int64) []any {
	in := newInputs(seed, "test")
	var out []any
	for i := 0; i < 20; i++ {
		out = append(out, in.r.round(), in.exploreAxes(), in.novelLatency(), in.r.intn(200))
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	if a, b := draw(7), draw(7); !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 gave two different input sequences")
	}
	if a, b := draw(7), draw(8); reflect.DeepEqual(a, b) {
		t.Fatal("seeds 7 and 8 gave the same input sequence")
	}
	if reflect.DeepEqual(newInputs(7, "a").exploreAxes(), newInputs(7, "b").exploreAxes()) {
		t.Fatal("streams a and b of seed 7 gave the same grid")
	}
}

func TestRoundIsPermutation(t *testing.T) {
	r := newRNG(3, "order")
	orders := map[string]bool{}
	for i := 0; i < 200; i++ {
		got := r.round()
		orders[got[0]+got[1]+got[2]+got[3]+got[4]] = true
		sorted := append([]string(nil), got...)
		sort.Strings(sorted)
		want := append([]string(nil), benchmarks...)
		sort.Strings(want)
		if !reflect.DeepEqual(sorted, want) {
			t.Fatalf("round %d = %v, not a permutation of %v", i, got, benchmarks)
		}
	}
	if len(orders) < 20 {
		t.Fatalf("only %d distinct orders in 200 rounds", len(orders))
	}
}

func TestNovelLatencyNeverRepeats(t *testing.T) {
	in := newInputs(11, "sessions-novel")
	base := map[float64]bool{}
	for _, v := range sessionLatencies {
		base[v] = true
	}
	seen := map[float64]bool{}
	for i := 0; i < 20000; i++ {
		v := in.novelLatency()
		if seen[v] || base[v] {
			t.Fatalf("draw %d: latency %g was already used", i, v)
		}
		if v < 6 || v >= 100 {
			t.Fatalf("draw %d: latency %g outside [6, 100)", i, v)
		}
		seen[v] = true
	}
}

func TestExploreGridShape(t *testing.T) {
	in := newInputs(5, "explore")
	for i := 0; i < 50; i++ {
		axes := in.exploreAxes()
		for j, want := range []int{4, 5, 10} {
			vals := map[float64]bool{}
			for _, v := range axes[j].Values {
				vals[v] = true
			}
			if len(vals) != want {
				t.Fatalf("axis %s has %d distinct values, want %d", axes[j].Param, len(vals), want)
			}
		}
		g := explore.Grid{Base: hw.BGQ(), Axes: axes}
		vs, err := g.Variants()
		if err != nil {
			t.Fatal(err)
		}
		if len(vs) != 200 {
			t.Fatalf("grid has %d variants, want 200", len(vs))
		}
		for _, m := range vs {
			if err := m.Validate(); err != nil {
				t.Fatalf("variant %s: %v", m.Name, err)
			}
		}
	}
}

func TestSessionAxes(t *testing.T) {
	size := func(specs []string) int {
		n := 1
		for _, s := range specs {
			ax, err := explore.ParseAxis(s)
			if err != nil {
				t.Fatal(err)
			}
			n *= len(ax.Values)
		}
		return n
	}
	if n := size(sessionAxes()); n != 60 {
		t.Fatalf("base grid has %d variants, want 60", n)
	}
	in := newInputs(1, "sessions-novel")
	lat := in.novelLatency()
	specs := sessionAxes(lat)
	if n := size(specs); n != 72 {
		t.Fatalf("base grid plus one latency has %d variants, want 72", n)
	}
	ax, _ := explore.ParseAxis(specs[2])
	if ax.Values[len(ax.Values)-1] != lat {
		t.Fatalf("latency %g did not survive the spec round trip: %v", lat, ax.Values)
	}
}
