package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"skope/internal/bst"
	"skope/internal/expr"
	"skope/internal/skeleton"
)

// The Monte Carlo oracle samples each skeleton in mcBatches independent
// batches of mcBatchRuns runs (4000 runs in all). The spread of the batch
// means gives each block's standard error, so the tolerance follows the
// sampling noise of that block: deeply nested blocks whose executions
// cluster (one rare branch admits many executions) get a wide band, and
// steady blocks a narrow one.
const (
	mcBatches   = 16
	mcBatchRuns = 250
	// mcZ is the band half-width in standard errors. A skeleton yields a
	// few dozen block checks, so the band has to be wide enough that
	// honest noise stays inside it across the whole corpus, yet narrow
	// enough that a doubled ENR falls outside (TestMCOracleHasPower).
	mcZ = 6
	// mcFloor absorbs the noise of blocks so rare that few batches see
	// them at all, where the batch spread underestimates the error.
	mcFloor = 0.02
)

// quickMCSeeds pins skeleton seeds that failed the earlier version of
// TestQuickBETMatchesMonteCarlo (clock-seeded inputs, a fixed 15% relative
// bound): at 200k runs each of them agrees with the BET within 1.7%, so
// they are sampling-noise cases the oracle must absorb.
var quickMCSeeds = []uint32{
	163642138, 1262242397, 181428426, 637496023, 1355033053,
	2177224880, 503016099, 426500320, 1095064571,
}

// mcSample is the batched Monte Carlo estimate for one skeleton: per
// block, the mean execution count over all runs and its standard error.
type mcSample struct {
	mean, se map[string]float64
}

// sampleMC runs the sampler over the tree in independent batches.
func sampleMC(tree *bst.Tree, input expr.Env, seed uint64) (*mcSample, error) {
	batches := make([]map[string]float64, mcBatches)
	ids := map[string]bool{}
	for k := range batches {
		b, err := MonteCarlo(tree, input, &MCOptions{Runs: mcBatchRuns, Seed: seed + uint64(k)*0x9E3779B97F4A7C15})
		if err != nil {
			return nil, err
		}
		batches[k] = b
		for id := range b {
			ids[id] = true
		}
	}
	s := &mcSample{mean: map[string]float64{}, se: map[string]float64{}}
	for id := range ids {
		var sum float64
		for _, b := range batches {
			sum += b[id]
		}
		mean := sum / mcBatches
		var ss float64
		for _, b := range batches {
			ss += (b[id] - mean) * (b[id] - mean)
		}
		s.mean[id] = mean
		s.se[id] = math.Sqrt(ss/(mcBatches-1)) / math.Sqrt(mcBatches)
	}
	return s, nil
}

// mismatches lists every block whose ENR lies outside mcZ standard errors
// plus mcFloor of the sampled mean, and every block modeled as executing
// (ENR above mcFloor) that the sampler never reached.
func (s *mcSample) mismatches(enr map[string]float64) []string {
	var out []string
	for id, mean := range s.mean {
		if got := enr[id]; math.Abs(got-mean) > mcZ*s.se[id]+mcFloor {
			out = append(out, fmt.Sprintf("%s: ENR %.4f vs MC %.4f ± %.4f", id, got, mean, s.se[id]))
		}
	}
	for id, got := range enr {
		if _, ok := s.mean[id]; !ok && got > mcFloor {
			out = append(out, fmt.Sprintf("%s: modeled (ENR %.4f) but never sampled", id, got))
		}
	}
	sort.Strings(out)
	return out
}

// quickMCCase builds the BET and the batched Monte Carlo estimate for one
// generated skeleton.
func quickMCCase(seed uint32) (src string, bet *BET, mc *mcSample, err error) {
	src = genSkeleton(uint64(seed))
	prog, err := skeleton.Parse("gen", src)
	if err != nil {
		return src, nil, nil, fmt.Errorf("parse: %w", err)
	}
	if err := skeleton.Validate(prog); err != nil {
		return src, nil, nil, fmt.Errorf("validate: %w", err)
	}
	tree, err := bst.Build(prog)
	if err != nil {
		return src, nil, nil, fmt.Errorf("bst: %w", err)
	}
	input := expr.Env{"n": 6}
	if bet, err = Build(context.Background(), tree, input, nil); err != nil {
		return src, nil, nil, fmt.Errorf("bet: %w", err)
	}
	if mc, err = sampleMC(tree, input, uint64(seed)*7+3); err != nil {
		return src, nil, nil, fmt.Errorf("mc: %w", err)
	}
	return src, bet, mc, nil
}

// TestQuickBETMatchesMonteCarlo validates the full §IV statistical
// semantics on randomly generated skeletons: for every leaf block, the
// BET's analytical ENR must match the Monte Carlo sampler's mean execution
// count within sampling noise. The generator covers nested loops,
// probabilistic and deterministic branches, elif chains, probabilistic
// break/continue/return, context-forking set statements, and calls.
//
// The expectations are exact in theory (the truncated-geometric iteration
// formula and the post-break scaling both equal the process means), so the
// band only covers Monte Carlo noise. Inputs are deterministic: the pinned
// seed corpus plus a fixed-seed quick.Check draw.
func TestQuickBETMatchesMonteCarlo(t *testing.T) {
	check := func(seed uint32) bool {
		src, bet, mc, err := quickMCCase(seed)
		if err != nil {
			t.Logf("seed %d: %v\n%s", seed, err, src)
			return false
		}
		if bad := mc.mismatches(enrByBlock(bet)); len(bad) > 0 {
			t.Logf("seed %d:\n\t%s\n%s\nbet:\n%s", seed, strings.Join(bad, "\n\t"), src, bet.Dump())
			return false
		}
		return true
	}
	for _, seed := range quickMCSeeds {
		if !check(seed) {
			t.Errorf("pinned seed %d failed", seed)
		}
	}
	cfg := &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(20140519))}
	if err := quick.Check(check, cfg); err != nil {
		t.Error(err)
	}
}

// TestMCOracleHasPower: the oracle must still catch a real modeling error.
// Doubling the ENR of any one block the sampler saw execute at least once
// per run on average fails the check on every pinned seed.
func TestMCOracleHasPower(t *testing.T) {
	for _, seed := range quickMCSeeds {
		_, bet, mc, err := quickMCCase(seed)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		enr := enrByBlock(bet)
		for id, got := range enr {
			if mc.mean[id] < 1 {
				continue
			}
			enr[id] = 2 * got
			if len(mc.mismatches(enr)) == 0 {
				t.Errorf("seed %d: doubling %s's ENR (%.4f) went undetected (MC %.4f ± %.4f)",
					seed, id, got, mc.mean[id], mc.se[id])
			}
			enr[id] = got
		}
	}
}

// genSkeleton emits a random skeleton program with one helper function.
func genSkeleton(seed uint64) string {
	r := &mclcg{state: seed*0x9E3779B97F4A7C15 + 0xBF58476D1CE4E5B9}
	var b strings.Builder
	b.WriteString("def main(n)\n")
	g := &skelGen{r: r, b: &b, nextName: 0, allowCall: true}
	g.block(1, 0)
	b.WriteString("end\n\ndef helper(m)\n")
	g.allowCall = false // helper must not call helper (no recursion)
	g.block(1, 0)
	b.WriteString("end\n")
	return b.String()
}

type mclcg struct{ state uint64 }

func (l *mclcg) next() uint64 {
	l.state = l.state*6364136223846793005 + 1442695040888963407
	return l.state >> 11
}

func (l *mclcg) intn(n int) int     { return int(l.next() % uint64(n)) }
func (l *mclcg) prob() float64      { return float64(l.intn(80)+10) / 100 }
func (l *mclcg) smallProb() float64 { return float64(l.intn(25)+5) / 100 }

type skelGen struct {
	r         *mclcg
	b         *strings.Builder
	nextName  int
	allowCall bool
}

func (g *skelGen) name() string {
	g.nextName++
	return fmt.Sprintf("blk%d", g.nextName)
}

// block emits 1-3 statements. loopDepth gates break/continue.
func (g *skelGen) block(depth, loopDepth int) {
	ind := strings.Repeat("  ", depth)
	n := 1 + g.r.intn(3)
	for s := 0; s < n; s++ {
		switch c := g.r.intn(8); {
		case c <= 1 && depth < 4:
			// Counted loop (constant or n bound).
			bound := fmt.Sprintf("%d", 2+g.r.intn(5))
			if g.r.intn(2) == 0 {
				bound = "n"
			}
			fmt.Fprintf(g.b, "%sfor v%d = 0 : %s\n", ind, depth, bound)
			g.block(depth+1, loopDepth+1)
			// Occasionally a probabilistic break or continue at body end.
			switch g.r.intn(4) {
			case 0:
				fmt.Fprintf(g.b, "%s  break prob=%.2f\n", ind, g.r.smallProb())
			case 1:
				fmt.Fprintf(g.b, "%s  continue prob=%.2f\n", ind, g.r.prob())
			}
			fmt.Fprintf(g.b, "%send\n", ind)
		case c == 2 && depth < 4:
			// Probabilistic branch, possibly elif/else.
			fmt.Fprintf(g.b, "%sif prob=%.2f\n", ind, g.r.prob())
			g.block(depth+1, loopDepth)
			if g.r.intn(2) == 0 {
				fmt.Fprintf(g.b, "%selif prob=%.2f\n", ind, g.r.prob())
				g.block(depth+1, loopDepth)
			}
			if g.r.intn(2) == 0 {
				fmt.Fprintf(g.b, "%selse\n", ind)
				g.block(depth+1, loopDepth)
			}
			fmt.Fprintf(g.b, "%send\n", ind)
		case c == 3 && depth < 4:
			// Context fork: set knob under a branch, then branch on it.
			fmt.Fprintf(g.b, "%sif prob=%.2f\n", ind, g.r.prob())
			fmt.Fprintf(g.b, "%s  set knob = 1\n", ind)
			fmt.Fprintf(g.b, "%selse\n", ind)
			fmt.Fprintf(g.b, "%s  set knob = 0\n", ind)
			fmt.Fprintf(g.b, "%send\n", ind)
			fmt.Fprintf(g.b, "%sif cond = knob == 1\n", ind)
			fmt.Fprintf(g.b, "%s  comp flops=2 name=%q\n", ind, g.name())
			fmt.Fprintf(g.b, "%send\n", ind)
		case c == 4 && depth < 3 && g.allowCall:
			fmt.Fprintf(g.b, "%scall helper(n)\n", ind)
		case c == 5:
			fmt.Fprintf(g.b, "%sreturn prob=%.2f\n", ind, g.r.smallProb())
		default:
			fmt.Fprintf(g.b, "%scomp flops=%d loads=%d name=%q\n",
				ind, 1+g.r.intn(9), g.r.intn(4), g.name())
		}
	}
	// Guarantee at least one observable leaf per block.
	fmt.Fprintf(g.b, "%scomp flops=1 name=%q\n", ind, g.name())
}
