package fleet

import (
	"bytes"
	"context"
	"encoding/gob"
	"strings"
	"testing"
	"time"

	"nmdetect/internal/checkpoint"
	"nmdetect/internal/community"
	"nmdetect/internal/core"
)

// smallConfig is a fleet shape sized for tests: tiny communities, the fast
// QMDP solver and a short bootstrap, mirroring the core test harness.
func smallConfig(f, n int, seed uint64, days int) Config {
	base := core.DefaultOptions(n, seed) // N/Seed overwritten per community
	base.Community.GameSweeps = 2
	base.BootstrapDays = 4
	base.Solver = core.SolverQMDP
	return Config{
		Communities: f,
		Size:        n,
		BaseSeed:    seed,
		Base:        base,
		Detector:    DetectorAware,
		Days:        days,
		Enforce:     true,
	}
}

// encodeResults canonicalises result slices for bitwise comparison (gob
// preserves exact float bit patterns).
func encodeResults(t *testing.T, results []*community.MonitorDayResult) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestConfigValidate(t *testing.T) {
	if err := smallConfig(2, 6, 1, 2).Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"zero communities", func(c *Config) { c.Communities = 0 }, "at least 1"},
		{"one customer", func(c *Config) { c.Size = 1 }, "at least 2 customers"},
		{"zero days", func(c *Config) { c.Days = 0 }, "must be positive"},
		{"bad detector", func(c *Config) { c.Detector = "psychic" }, "unknown detector"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := smallConfig(2, 6, 1, 2)
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Validate() = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// The 1-customer guard must be routed, not panicked, from every entry point:
// Run, Build and Drive all validate before touching the game layer (which
// would otherwise panic inside the hierarchical shard planner).
func TestSingleCustomerRejectedEverywhere(t *testing.T) {
	cfg := smallConfig(1, 1, 1, 2)
	ctx := context.Background()
	if _, err := Run(ctx, cfg); err == nil || !strings.Contains(err.Error(), "at least 2 customers") {
		t.Fatalf("Run: %v, want 1-customer rejection", err)
	}
	if _, err := Build(ctx, cfg); err == nil || !strings.Contains(err.Error(), "at least 2 customers") {
		t.Fatalf("Build: %v, want 1-customer rejection", err)
	}
	if err := Drive(ctx, cfg, nil); err == nil || !strings.Contains(err.Error(), "at least 2 customers") {
		t.Fatalf("Drive: %v, want 1-customer rejection", err)
	}
}

func TestCommunitySeedDerivation(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 32; i++ {
		s := CommunitySeed(99, i)
		if s == 99 {
			t.Fatalf("community %d seed equals the base seed", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("communities %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
		// Pure function of (base, i): independent of call order or width.
		if again := CommunitySeed(99, i); again != s {
			t.Fatalf("community %d seed not stable: %d then %d", i, s, again)
		}
	}
	if CommunitySeed(99, 0) == CommunitySeed(100, 0) {
		t.Fatal("distinct base seeds derived the same community seed")
	}
}

func TestCommunityOptions(t *testing.T) {
	cfg := smallConfig(3, 6, 7, 2)
	cfg.Base.Community.N = 999     // template values the lowering must replace
	cfg.Base.Community.Seed = 1234 //
	for i := 0; i < cfg.Communities; i++ {
		opts := cfg.CommunityOptions(i)
		if opts.Community.N != cfg.Size {
			t.Fatalf("community %d: N = %d, want %d", i, opts.Community.N, cfg.Size)
		}
		if opts.Community.Seed != CommunitySeed(cfg.BaseSeed, i) {
			t.Fatalf("community %d: seed %d, want derived %d", i, opts.Community.Seed, CommunitySeed(cfg.BaseSeed, i))
		}
		if opts.Solver != cfg.Base.Solver || opts.BootstrapDays != cfg.Base.BootstrapDays {
			t.Fatalf("community %d: template fields not preserved", i)
		}
	}
}

// A width-1 fleet must be byte-identical to the direct single-community
// path driven from the same derived options — the fleet layer adds
// orchestration, never simulation semantics.
func TestFleetWidthOneMatchesDirect(t *testing.T) {
	if testing.Short() {
		t.Skip("long determinism test")
	}
	const days = 6
	cfg := smallConfig(1, 6, 42, days)
	ctx := context.Background()

	runners, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Drive(ctx, cfg, runners); err != nil {
		t.Fatal(err)
	}

	sys, err := core.NewSystem(ctx, cfg.CommunityOptions(0))
	if err != nil {
		t.Fatal(err)
	}
	camp, err := sys.NewCampaign()
	if err != nil {
		t.Fatal(err)
	}
	direct, err := sys.MonitorDays(ctx, sys.Aware, camp, days, true)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeResults(t, runners[0].Results()), encodeResults(t, direct)) {
		t.Fatal("width-1 fleet diverged from the direct core.System path")
	}
}

// Fleet results are bitwise invariant to the fleet worker count: workers
// bound the fan-out only, never the schedule-visible state.
func TestFleetWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("long determinism test")
	}
	const days = 4
	run := func(workers int) [][]byte {
		cfg := smallConfig(3, 6, 7, days)
		cfg.Workers = workers
		ctx := context.Background()
		runners, err := Build(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := Drive(ctx, cfg, runners); err != nil {
			t.Fatal(err)
		}
		out := make([][]byte, len(runners))
		for i, r := range runners {
			out[i] = encodeResults(t, r.Results())
		}
		return out
	}
	seq, par := run(1), run(4)
	for i := range seq {
		if !bytes.Equal(seq[i], par[i]) {
			t.Fatalf("community %d results differ between 1 and 4 fleet workers", i)
		}
	}
}

// The fleet half of the crash-equivalence suite: a fleet killed mid-run and
// resumed from its checkpoint directory produces bit-for-bit the results of
// an uninterrupted fleet. The kill lands between per-community checkpoints,
// so the resume is ragged — communities restore at different days and the
// shared day loop catches up with each.
func TestFleetResumeMatchesUninterrupted(t *testing.T) {
	if testing.Short() {
		t.Skip("long determinism test")
	}
	const days = 8
	ctx := context.Background()

	// Reference: one uninterrupted fleet (no checkpointing).
	ref := smallConfig(2, 6, 11, days)
	refRunners, err := Build(ctx, ref)
	if err != nil {
		t.Fatal(err)
	}
	if err := Drive(ctx, ref, refRunners); err != nil {
		t.Fatal(err)
	}

	// The doomed fleet: checkpoint every 3 days, cancel as soon as the
	// first community file lands — some communities have checkpointed,
	// others may not have.
	cfg := ref
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 3
	killCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go func() {
		for !checkpoint.Exists(CommunityCheckpoint(cfg.CheckpointDir, 0)) &&
			!checkpoint.Exists(CommunityCheckpoint(cfg.CheckpointDir, 1)) {
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	doomed, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Drive(killCtx, cfg, doomed); err == nil {
		t.Log("killed fleet completed before cancellation")
	}

	// Resume in "a fresh process": rebuild from the directory and finish.
	resumed, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Drive(ctx, cfg, resumed); err != nil {
		t.Fatal(err)
	}
	for i := range refRunners {
		if !bytes.Equal(encodeResults(t, refRunners[i].Results()), encodeResults(t, resumed[i].Results())) {
			t.Fatalf("community %d: resumed results diverge from the uninterrupted fleet", i)
		}
	}

	// The manifest pins the fleet shape: resuming the directory under a
	// different base seed is refused, not silently spliced.
	reseeded := cfg
	reseeded.BaseSeed++
	if _, err := Build(ctx, reseeded); err == nil || !strings.Contains(err.Error(), "was taken with fleet") {
		t.Fatalf("Build with mismatched manifest: %v, want shape refusal", err)
	}
}

// A checkpoint directory holding more completed days than the run requests
// is an error at build time, mirroring the single-community guard.
func TestBuildRejectsOverlongCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("long determinism test")
	}
	ctx := context.Background()
	cfg := smallConfig(1, 6, 5, 4)
	cfg.CheckpointDir = t.TempDir()
	cfg.CheckpointEvery = 2
	runners, err := Build(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Drive(ctx, cfg, runners); err != nil {
		t.Fatal(err)
	}
	short := cfg
	short.Days = 2
	if _, err := Build(ctx, short); err == nil || !strings.Contains(err.Error(), "already holds") {
		t.Fatalf("Build with overlong checkpoint: %v, want refusal", err)
	}
}

func TestDriveRunnerCountMismatch(t *testing.T) {
	cfg := smallConfig(3, 6, 1, 2)
	if err := Drive(context.Background(), cfg, make([]*core.Runner, 2)); err == nil ||
		!strings.Contains(err.Error(), "2 runners for 3 communities") {
		t.Fatalf("Drive: %v, want runner count mismatch", err)
	}
}

// SimDay shares the invariance contract with Drive: one clean open-loop day
// per engine, bitwise invariant to the worker count.
func TestSimDayWorkerInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("long determinism test")
	}
	const f = 3
	build := func() []*community.Engine {
		engines := make([]*community.Engine, f)
		for i := range engines {
			cfg := community.DefaultConfig(6, CommunitySeed(21, i))
			cfg.GameSweeps = 2
			eng, err := community.NewEngine(cfg)
			if err != nil {
				t.Fatal(err)
			}
			engines[i] = eng
		}
		return engines
	}
	ctx := context.Background()
	encode := func(results []SimDayResult) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(results); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	seqEngines, parEngines := build(), build()
	for day := 0; day < 2; day++ {
		seq, err := SimDay(ctx, 1, seqEngines, true)
		if err != nil {
			t.Fatal(err)
		}
		par, err := SimDay(ctx, 4, parEngines, true)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encode(seq), encode(par)) {
			t.Fatalf("day %d: SimDay results differ between 1 and 4 workers", day)
		}
	}
}
