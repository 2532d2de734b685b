package main

// The local multi-process sweep mode (-shard-workers N): the parent
// process hosts an in-process shard coordinator on a loopback listener,
// re-executes itself N times as shard workers (the child role is selected
// by environment, not flags, so the frozen flag surface stays untouched),
// and renders the merged result exactly like a single-process sweep. Each
// worker owns per-shard crash-safe journals under -shard-dir; a killed or
// crashed worker's leases expire and its shards are stolen, and re-running
// with the same -shard-dir replays every journaled variant bit-identically
// instead of recomputing it.

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"skope/internal/explore"
	"skope/internal/hw"
	"skope/internal/journal"
	"skope/internal/pipeline"
	"skope/internal/shard"
)

// shardWorkerURLEnv selects the shard-worker role when set: the process
// joins the coordinator at this URL instead of parsing flags. The
// companion variables name the job, the journal directory, and the
// worker's identity.
const (
	shardWorkerURLEnv = "SKOPE_SHARD_URL"
	shardWorkerJobEnv = "SKOPE_SHARD_JOB"
	shardWorkerDirEnv = "SKOPE_SHARD_DIR"
	shardWorkerIDEnv  = "SKOPE_SHARD_ID"
)

// runShardWorker is the child role: a shard.Worker against the parent's
// coordinator. It exits 0 when the job is done (even if every shard was
// processed by someone else) and 1 on protocol or preparation errors.
func runShardWorker() int {
	w := &shard.Worker{
		Client:  &shard.Client{BaseURL: os.Getenv(shardWorkerURLEnv)},
		JobID:   os.Getenv(shardWorkerJobEnv),
		ID:      os.Getenv(shardWorkerIDEnv),
		DataDir: os.Getenv(shardWorkerDirEnv),
		Poll:    100 * time.Millisecond,
	}
	if _, err := w.Run(context.Background()); err != nil {
		fmt.Fprintf(os.Stderr, "skope: shard worker %s: %v\n", w.ID, err)
		return 1
	}
	return 0
}

// shardSpec translates the parsed command line into the self-contained
// job spec workers reproduce the grid from.
func shardSpec(cfg config, run *pipeline.Run, base *hw.Machine) (shard.JobSpec, error) {
	axes, err := cfg.sw.Axes.Axes()
	if err != nil {
		return shard.JobSpec{}, err
	}
	layout, err := run.Layout()
	if err != nil {
		return shard.JobSpec{}, err
	}
	spec := shard.JobSpec{
		Base:             base.Wire(),
		Axes:             axes,
		Lenient:          cfg.grd.Lenient,
		Retries:          cfg.sw.Retries,
		VariantTimeoutMs: cfg.sw.VariantTimeout.Milliseconds(),
		LayoutFP:         layout.Fingerprint(),
	}
	if cfg.source != "" {
		// Inline the program text: workers must not depend on the file
		// still existing (or being unchanged) when they prepare.
		spec.Bench = run.Workload.Name
		spec.Source = run.Workload.Source
		spec.Seed = run.Workload.Seed
	} else {
		spec.Bench = cfg.bench
		spec.Scale = cfg.scale
	}
	return spec, nil
}

// shardSizeFor picks the partition granularity: ~4 shards per worker, so
// work stealing has something to steal without drowning the protocol in
// round trips.
func shardSizeFor(variants, workers int) int {
	size := variants / (4 * workers)
	if size < 1 {
		size = 1
	}
	return size
}

// sweepSharded runs the sweep as a local multi-process job: coordinator
// in-process, N re-executed workers, merged journal replayed locally for
// rendering (the replay is a bit-identical presentation of the workers'
// results, never a recomputation).
func sweepSharded(ctx context.Context, out io.Writer, cfg config, run *pipeline.Run, base *hw.Machine) (degraded bool, err error) {
	if cfg.grd.Limits != "" {
		// Guard limits are not part of the job spec (workers prepare from
		// the spec alone), so a limits override would silently not apply to
		// them. Refuse rather than mislead.
		return false, fmt.Errorf("-shard-workers does not propagate -limits to worker processes; drop one of the two")
	}
	spec, err := shardSpec(cfg, run, base)
	if err != nil {
		return false, err
	}
	variants, err := spec.Variants()
	if err != nil {
		return false, err
	}
	spec.ShardSize = shardSizeFor(len(variants), cfg.sw.ShardWorkers)

	dir := cfg.sw.ShardDir
	if dir == "" {
		tmp, terr := os.MkdirTemp("", "skope-shard-")
		if terr != nil {
			return false, terr
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return false, err
	}
	mergedPath := cfg.sw.Journal
	if mergedPath == "" {
		mergedPath = filepath.Join(dir, "merged.journal")
	} else if !cfg.sw.Resume {
		if fi, statErr := os.Stat(mergedPath); statErr == nil && fi.Size() > 0 {
			return false, fmt.Errorf("journal %s already exists; pass -resume to replace it or remove the file", mergedPath)
		}
	}

	const jobID = "local"
	coord, err := shard.NewCoordinator(shard.Config{
		JobID: jobID,
		Spec:  spec,
		Lease: 10 * time.Second,
	})
	if err != nil {
		return false, err
	}
	svc := shard.NewService()
	svc.Add(coord)
	mux := http.NewServeMux()
	svc.Mount(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return false, err
	}
	hsrv := &http.Server{Handler: mux}
	go func() { _ = hsrv.Serve(ln) }()
	defer hsrv.Close()

	exe, err := os.Executable()
	if err != nil {
		return false, err
	}
	start := time.Now()
	procs := make([]*exec.Cmd, 0, cfg.sw.ShardWorkers)
	for i := 0; i < cfg.sw.ShardWorkers; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(),
			shardWorkerURLEnv+"=http://"+ln.Addr().String(),
			shardWorkerJobEnv+"="+jobID,
			shardWorkerDirEnv+"="+dir,
			fmt.Sprintf("%s=w%d", shardWorkerIDEnv, i),
		)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			for _, p := range procs {
				_ = p.Process.Kill()
				_ = p.Wait()
			}
			return false, fmt.Errorf("spawn shard worker %d: %w", i, err)
		}
		procs = append(procs, cmd)
	}
	var workerErr error
	for i, p := range procs {
		if werr := p.Wait(); werr != nil && workerErr == nil {
			workerErr = fmt.Errorf("shard worker %d: %w", i, werr)
		}
	}
	wall := time.Since(start)

	// A failed worker is tolerable as long as the others finished the job
	// (that is the point of the protocol); an unfinished job is not.
	if !coord.Done() {
		if workerErr != nil {
			return false, fmt.Errorf("sharded sweep incomplete: %w", workerErr)
		}
		return false, fmt.Errorf("sharded sweep incomplete: %d of %d variants merged", coord.Status().Merged, len(variants))
	}
	if workerErr != nil {
		fmt.Fprintln(os.Stderr, "skope: warning:", workerErr)
		degraded = true
	}
	for _, f := range coord.Failures() {
		fmt.Fprintf(os.Stderr, "skope: warning: variant %d (worker %s): %s\n", f.Index, f.Worker, f.Err)
		degraded = true
	}

	if _, err := coord.WriteMerged(mergedPath); err != nil {
		return degraded, err
	}

	// Local replay: feed the merged journal through pipeline.Sweep so
	// rendering, ranking, and the Pareto frontier go through exactly the
	// same path as a single-process sweep. Any variant missing from the
	// journal (a permanently failed one) is evaluated here as a fallback.
	j, err := journal.Open(mergedPath)
	if err != nil {
		return degraded, err
	}
	defer j.Close()
	replayable := j.Len()
	lim, _ := cfg.grd.Resolve()
	opts := sweepOptions(cfg, lim)
	evals, err := pipeline.Sweep(ctx, run, variants, append(opts, pipeline.WithJournal(j))...)
	if err != nil {
		if evals == nil || !explore.Tolerable(err) {
			return degraded, err
		}
		fmt.Fprintln(os.Stderr, "skope: warning:", err)
		degraded = true
	}

	baseAnalysis, err := baseline(ctx, run, base, opts)
	if err != nil {
		return degraded, err
	}
	renderSweep(out, cfg, variants, evals, baseAnalysis, run.Workload.Name, base.Name)

	st := coord.Status()
	fmt.Fprintf(out, "sweep stats: %d variants in %s across %d worker processes, %d shards",
		len(variants), wall.Round(time.Microsecond), len(st.Workers), st.Shards)
	if st.Steals > 0 {
		fmt.Fprintf(out, ", %d leases stolen", st.Steals)
	}
	fmt.Fprintf(out, ", %d replayed from merged journal\n", replayable)
	if run.Degraded() {
		degraded = true
	}
	return degraded, nil
}
