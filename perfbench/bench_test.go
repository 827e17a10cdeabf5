package main

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// tiny returns a workload size small enough for a unit test.
func tiny(workload string) size {
	switch workload {
	case "fleet":
		return size{Replicas: 1, Nodes: 4, ImageBytes: 16 << 20, BootBytes: 4 << 20}
	case "elasticity":
		return size{Replicas: 2, Nodes: 6, ImageBytes: 16 << 20, BootBytes: 4 << 20}
	default:
		return size{Replicas: 1, Nodes: 2, ImageBytes: 32 << 20, BootBytes: 4 << 20,
			WriteBytes: 4 << 20, ReadBytes: 8 << 20}
	}
}

// measure runs every replica of a workload in this process and pools
// them, as run.py does with one process per replica.
func measure(workload string, seed int64, shards int, sz size, profile string) (*result, error) {
	var reps []*replicaResult
	for i := 0; i < sz.Replicas; i++ {
		r, err := runReplica(workload, seed, i, shards, sz, profile)
		if err != nil {
			return nil, err
		}
		reps = append(reps, r)
	}
	return pool(reps)
}

// runScenario builds and runs one replica, failing the test on any error.
func runScenario(t *testing.T, workload string, seed int64, sz size) (*scenario, outcome) {
	t.Helper()
	s, err := build(workload, seed, 1, sz)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.run(func(done func() bool) func() bool { return done }); err != nil {
		t.Fatal(err)
	}
	o, err := s.verify()
	if err != nil {
		t.Fatal(err)
	}
	return s, o
}

// The benchmark assembles fleet itself rather than calling FleetRun; at
// seed 1, where the benchmark's boot-trace seed equals the cell's fixed
// one, it must simulate exactly what the cell does: the same registry
// when the last instance is ready, and the same bare-metal times as the
// cell's traced run, which also waits for bare metal.
func TestFleetMatchesCell(t *testing.T) {
	sz := tiny("fleet")
	s, o := runScenario(t, "fleet", 1, sz)
	opt := experiments.Options{Seed: 1, ImageBytes: sz.ImageBytes, BootBytes: sz.BootBytes, Shards: 1}
	cell, err := experiments.FleetRun(opt, sz.Nodes, true)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.readySnap, cell.Snapshot) {
		t.Errorf("registry at ready differs from FleetRun's:\nbench %+v\ncell  %+v", s.readySnap, cell.Snapshot)
	}
	ready := sorted(o.Ready)
	if got := percentile(ready, 50); got != cell.ReadyP50 {
		t.Errorf("ready p50 %v, FleetRun %v", got, cell.ReadyP50)
	}
	if got := ready[len(ready)-1]; got != cell.Worst {
		t.Errorf("worst ready %v, FleetRun %v", got, cell.Worst)
	}

	opt.EnableTrace = true
	traced, err := experiments.FleetRun(opt, sz.Nodes, true)
	if err != nil {
		t.Fatal(err)
	}
	bare := sorted(o.Bare)
	if got := percentile(bare, 50); got != traced.BareP50 {
		t.Errorf("bare-metal p50 %v, traced FleetRun %v", got, traced.BareP50)
	}
	if got := bare[len(bare)-1]; got != traced.BareWorst {
		t.Errorf("worst bare metal %v, traced FleetRun %v", got, traced.BareWorst)
	}
}

// Likewise for elasticity against ElasticityRun, with the cell's storm
// and tenant profile.
func TestElasticityMatchesCell(t *testing.T) {
	sz := tiny("elasticity")
	_, o := runScenario(t, "elasticity", 1, sz)
	opt := experiments.Options{Seed: 1, DevirtImageBytes: sz.ImageBytes, BootBytes: sz.BootBytes, Shards: 1}
	cell, err := experiments.ElasticityRun(opt, sz.Nodes, experiments.ElasticProfile(), experiments.ElasticStorm())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.Snapshot, cell.Snapshot) {
		t.Errorf("registry differs from ElasticityRun's:\nbench %+v\ncell  %+v", o.Snapshot, cell.Snapshot)
	}
	if o.Attempted != cell.SubmittedReqs {
		t.Errorf("%d requests, ElasticityRun %d", o.Attempted, cell.SubmittedReqs)
	}
	var ready int
	for _, ph := range cell.Phases {
		ready += ph.Ready
	}
	if o.OK != ready {
		t.Errorf("%d requests ready, ElasticityRun %d", o.OK, ready)
	}
	if cell.Quarantines == 0 {
		t.Error("the storm quarantined nothing; the test size no longer exercises it")
	}
}

// Every simulated result and work count, process wakes included, is the
// same at one and two shard workers and across runs of one seed.
func TestDeterministicAcrossShardWorkers(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	for _, wl := range []string{"fleet", "elasticity", "deploy-io"} {
		t.Run(wl, func(t *testing.T) {
			var base *result
			for _, shards := range []int{1, 1, 2} {
				r, err := measure(wl, 7, shards, tiny(wl), filepath.Join(t.TempDir(), "cpu.pprof"))
				if err != nil {
					t.Fatal(err)
				}
				if r.Error != "" || r.Failed != 0 {
					t.Fatalf("shards %d: %d of %d failed: %s", shards, r.Failed, r.Attempted, r.Error)
				}
				if base == nil {
					base = r
					continue
				}
				if !reflect.DeepEqual(r.Sim, base.Sim) {
					t.Errorf("shards %d: simulated results differ:\n%v\n%v", shards, r.Sim, base.Sim)
				}
				if !reflect.DeepEqual(r.Counts, base.Counts) {
					t.Errorf("shards %d: work counts differ:\n%v\n%v", shards, r.Counts, base.Counts)
				}
			}
			if base.Counts["sim.proc_wakes"] == 0 || base.Counts["sim.windows"] == 0 {
				t.Errorf("probes counted nothing: %v", base.Counts)
			}
		})
	}
}

func TestSeedChangesInputs(t *testing.T) {
	a, err := measure("fleet", 1, 1, tiny("fleet"), "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := measure("fleet", 2, 1, tiny("fleet"), "")
	if err != nil {
		t.Fatal(err)
	}
	if a.Sim["ready_p50_sim_s"] == b.Sim["ready_p50_sim_s"] {
		t.Errorf("seeds 1 and 2 simulate the same ready p50 %v", a.Sim["ready_p50_sim_s"])
	}
}

// fr builds a frame from "function@file".
func fr(s string) frame {
	fn, file, _ := strings.Cut(s, "@")
	return frame{Func: fn, File: file}
}

func frames(ss ...string) []frame {
	var out []frame
	for _, s := range ss {
		out = append(out, fr(s))
	}
	return out
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		stack []frame // innermost first
		want  string
	}{
		{frames("repro/internal/sim.(*Kernel).siftDown@/src/internal/sim/kernel.go",
			"repro/internal/sim.(*Kernel).step@/src/internal/sim/kernel.go"), "sim.heap"},
		{frames("runtime.chanrecv@/go/src/runtime/chan.go", "runtime.chanrecv1@/go/src/runtime/chan.go",
			"repro/internal/sim.(*Proc).park@/src/internal/sim/proc.go",
			"repro/internal/sim.(*Proc).Sleep@/src/internal/sim/proc.go",
			"repro/internal/core.(*VMM).writer@/src/internal/core/vmm.go"), "sim.proc"},
		{frames("runtime.gcBgMarkWorker@/go/src/runtime/mgc.go", "runtime.goexit@/go/src/runtime/asm_amd64.s"), "runtime.gc"},
		{frames("runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"), "runtime.gc"},
		{frames("runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"), "runtime.sched"},
		{frames("runtime.mallocgc", "repro/internal/hw/disk.(*Store).Write@/src/internal/hw/disk/store.go",
			"repro/internal/core.(*VMM).writer@/src/internal/core/vmm.go"), "hw"},
		{frames("repro/internal/sim.(*ShardSet).mergePosts@/src/internal/sim/shard.go",
			"repro/internal/sim.(*ShardSet).RunUntil@/src/internal/sim/shard.go"), "sim.shard"},
		{frames("repro/internal/sim.(*Kernel).Post@/src/internal/sim/shard.go"), "sim.shard"},
		{frames("repro/internal/sim.(*Queue[go.shape.*uint8]).Pop@/src/internal/sim/sync.go",
			"repro/internal/vblade.(*Server).worker@/src/internal/vblade/server.go"), "sim.proc"},
		{frames("repro/internal/vblade.(*Server).serve.func1@/src/internal/vblade/server.go",
			"repro/internal/sim.(*Kernel).step@/src/internal/sim/kernel.go"), "vblade"},
		{frames("repro/internal/tenants.(*Generator).arrivals@/src/internal/tenants/gen.go"), "cloud"},
		{frames("repro/internal/trace.Cause@/src/internal/trace/trace.go",
			"repro/internal/mediator.(*AHCI).redirect@/src/internal/mediator/ahci.go"), "metrics"},
		{frames("main.(*sampler).wrap.func1@/src/perfbench/main.go",
			"repro/internal/sim.(*ShardSet).RunUntil@/src/internal/sim/shard.go"), "sim.shard"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("layerOf(%v) = %s, want %s", tc.stack, got, tc.want)
		}
	}
}

// Every source file of the sim package is charged to a named sim layer.
func TestSimFilesMapped(t *testing.T) {
	files, err := filepath.Glob("../internal/sim/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sim sources: %v", err)
	}
	for _, f := range files {
		if base := filepath.Base(f); !strings.HasSuffix(base, "_test.go") && simFiles[base] == "" {
			t.Errorf("sim source %s is not in simFiles", base)
		}
	}
}

func TestAttributeSumsToTotal(t *testing.T) {
	samples := []cpuSample{
		{frames("repro/internal/sim.(*Kernel).siftDown@kernel.go"), 10e6},
		{frames("runtime.chanrecv", "repro/internal/sim.(*Proc).park@proc.go"), 20e6},
		{frames("runtime.gcBgMarkWorker"), 30e6},
		{frames("runtime.mcall"), 40e6},
		{frames("repro/internal/unknown.F@f.go"), 50e6},
	}
	per, total := attribute(samples)
	if total != 0.15 {
		t.Errorf("total %v, want 0.15", total)
	}
	var sum float64
	for _, l := range hostLayers {
		sum += per[l]
	}
	if math.Abs(sum-total) > 1e-12 {
		t.Errorf("layers sum to %v, profile total %v", sum, total)
	}
	if per["sim.heap"] != 0.01 || per["sim.proc"] != 0.02 || per["runtime.gc"] != 0.03 ||
		per["runtime.sched"] != 0.04 || per["cloud"] != 0.05 {
		t.Errorf("per-layer seconds %v", per)
	}
}

func TestParseTraces(t *testing.T) {
	listing := `File: perfbench
Type: cpu
Duration: 1.21s, Total samples = 1.25s (103.31%)
-----------+-------------------------------------------------------
      30ms   repro/internal/sim.(*Kernel).siftDown /src/internal/sim/kernel.go:301
             repro/internal/sim.(*Kernel).popMin /src/internal/sim/kernel.go:270 (inline)
             repro/internal/sim.(*Kernel).step /src/internal/sim/kernel.go:190
-----------+-------------------------------------------------------
     1.21s   runtime.futex /go/src/runtime/sys_linux_amd64.s:557
-----------+-------------------------------------------------------
`
	got, err := parseTraces(listing)
	if err != nil {
		t.Fatal(err)
	}
	want := []cpuSample{
		{frames("repro/internal/sim.(*Kernel).siftDown@/src/internal/sim/kernel.go",
			"repro/internal/sim.(*Kernel).popMin@/src/internal/sim/kernel.go",
			"repro/internal/sim.(*Kernel).step@/src/internal/sim/kernel.go"), 30e6},
		{frames("runtime.futex@/go/src/runtime/sys_linux_amd64.s"), 1210e6},
		{nil, 10e6}, // left out of the listing for its empty stack
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("parsed\n%v\nwant\n%v", got, want)
	}
}

// A real traced run's profile decodes, and its layers sum to its total.
func TestTracedProfileSumsToTotal(t *testing.T) {
	profile := filepath.Join(t.TempDir(), "cpu.pprof")
	r, err := runReplica("deploy-io", 1, 0, 1, tiny("deploy-io"), profile)
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range hostLayers {
		v, ok := r.HostS[l]
		if !ok {
			t.Errorf("no host seconds for layer %s", l)
		}
		sum += v
	}
	if r.ProfileS <= 0 || math.Abs(sum-r.ProfileS) > 1e-9 {
		t.Errorf("layers sum to %v, profile total %v", sum, r.ProfileS)
	}
	if len(r.Spans) != 3 || len(r.Progress) == 0 {
		t.Errorf("spans %v, %d progress points", r.Spans, len(r.Progress))
	}
	if fi, err := os.Stat(profile); err != nil || fi.Size() == 0 {
		t.Errorf("no CPU profile written: %v", err)
	}
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct{ n, want int }{{8, 100}, {10, 100}, {11, 9}, {48, 79}, {64, 84}, {300, 96}} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %d, want %d", tc.n, got, tc.want)
		}
	}
}
