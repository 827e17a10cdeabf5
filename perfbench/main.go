// Command perfbench runs one replica of a benchmark workload in this
// process and prints what it measured as one JSON object: host time for
// set-up and for the run, the Go heap's high-water mark, and the run's
// simulated outcome and registry counters. With -profile it also
// profiles the run, counts process wakes by layer and records its own
// spans. With -setup it only times building the scenario, and with -pool
// it reads replica results on standard input and prints the workload's
// metrics pooled over them. perfbench/run.py
// drives it, one fresh process per replica so no replica inherits
// another's heap; README.md in this directory explains the workloads
// and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/sim"
)

// shardWorkers is how many workers run the sharded schedule. One: on a
// 2-vCPU host two are slower and noisier (README.md).
const shardWorkers = 1

// setupReps is how many times -setup builds the scenario.
const setupReps = 30

func main() {
	wl := flag.String("workload", "", "fleet, elasticity or deploy-io")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	replica := flag.Int("replica", 0, "which replica of the workload to run")
	profile := flag.String("profile", "", "write the run's CPU profile to this file, count process wakes by layer and record spans")
	setup := flag.Bool("setup", false, "only build the scenario, several times, and report each build's host time")
	pooled := flag.Bool("pool", false, "pool the replica results read from standard input")
	flag.Parse()

	var res any
	sz, err := benchSize(*wl)
	switch {
	case err != nil:
	case *pooled:
		var reps []*replicaResult
		reps, err = readReplicas(os.Stdin)
		if err == nil {
			res, err = pool(reps)
		}
	case *setup:
		res, err = setupTimes(*wl, *seed, shardWorkers, sz)
	default:
		res, err = runReplica(*wl, *seed, *replica, shardWorkers, sz, *profile)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(res)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// host is the part of the host fingerprint the Go process knows.
type host struct {
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Shards     int    `json:"shards"`
}

func hostOf(shards int) host {
	return host{GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), Shards: shards}
}

// replicaResult is what one replica's process measured. Everything but
// the host times, the heap, spans and progress is simulated and repeats
// exactly for a seed.
type replicaResult struct {
	Workload  string         `json:"workload"`
	Seed      int64          `json:"seed"`
	Replica   int            `json:"replica"`
	Replicas  int            `json:"replicas"`
	Host      host           `json:"host"`
	SetupS    float64        `json:"setup_s"`
	WallS     float64        `json:"wall_s"`
	HeapSysMB float64        `json:"heap_sys_mb"`
	Attempted int            `json:"attempted"`
	OK        int            `json:"ok"`
	Failed    int            `json:"failed"`
	Error     string         `json:"error,omitempty"`
	Ready     []sim.Duration `json:"ready_ns"`
	Bare      []sim.Duration `json:"bare_ns"`
	// Counters are the registry's counters, each summed over its labels,
	// plus the barrier sampler's and (traced) the process-wake counts.
	Counters map[string]float64 `json:"counters"`
	// Traced runs only: host CPU seconds per layer and in all, and the
	// benchmark's own spans and per-simulated-second progress points.
	HostS    map[string]float64 `json:"host_s,omitempty"`
	ProfileS float64            `json:"profile_s,omitempty"`
	Spans    []span             `json:"spans,omitempty"`
	Progress []progress         `json:"progress,omitempty"`
}

// span is one phase of the benchmark process, in host seconds since the
// process started measuring.
type span struct {
	Name  string  `json:"name"`
	Start float64 `json:"start_s"`
	End   float64 `json:"end_s"`
}

// progress is the run's state when the barrier frontier crossed a
// simulated second.
type progress struct {
	SimS    float64 `json:"sim_s"`
	WallS   float64 `json:"wall_s"`
	Pending int     `json:"pending"`
}

// replicaSeed is the seed of replica i: the workload seed itself for the
// first, and seeds derived from it for the rest.
func replicaSeed(seed int64, i int) int64 {
	if i == 0 {
		return seed
	}
	return experiments.DeriveSeed(seed, fmt.Sprintf("perfbench/replica/%d", i))
}

// setupTimes builds the first replica's scenario setupReps times and reports
// each build's host seconds, with the workload's replica count. The scenarios are never run. Set-up takes
// milliseconds, too short for one build to time steadily, so the
// benchmark reports the median of many. Each build starts after a full
// collection, so that a collection the earlier builds' garbage set off
// is not charged to it.
func setupTimes(wl string, seed int64, shards int, sz size) (map[string]any, error) {
	times := make([]float64, setupReps)
	for i := range times {
		runtime.GC()
		start := time.Now()
		if _, err := build(wl, seed, shards, sz); err != nil {
			return nil, err
		}
		times[i] = time.Since(start).Seconds()
	}
	return map[string]any{"workload": wl, "seed": seed, "host": hostOf(shards), "replicas": sz.Replicas,
		"setup_reps": times}, nil
}

// runReplica builds replica i of the workload, runs it and checks it.
// Given a profile file, it traces the run: the CPU profile goes to that
// file, and process wakes, spans and progress points are recorded.
func runReplica(wl string, seed int64, i, shards int, sz size, profile string) (*replicaResult, error) {
	if i < 0 || i >= sz.Replicas {
		return nil, fmt.Errorf("%s has replicas 0 to %d, not %d", wl, sz.Replicas-1, i)
	}
	epoch := time.Now()
	since := func() float64 { return time.Since(epoch).Seconds() }
	res := &replicaResult{Workload: wl, Seed: seed, Replica: i, Replicas: sz.Replicas, Host: hostOf(shards)}

	s, err := build(wl, replicaSeed(seed, i), shards, sz)
	if err != nil {
		return nil, err
	}
	res.SetupS = since()
	res.Spans = append(res.Spans, span{"setup", 0, res.SetupS})

	traced := profile != ""
	smp := &sampler{set: s.tb.Set}
	var wakes *wakeCounter
	var prof *os.File
	if traced {
		smp.epoch = epoch
		wakes = newWakeCounter(s.tb.Set.Domains())
		if prof, err = os.Create(profile); err != nil {
			return nil, err
		}
		defer prof.Close()
		if err := pprof.StartCPUProfile(prof); err != nil {
			return nil, err
		}
	}
	start := since()
	runErr := s.run(smp.wrap)
	end := since()
	if traced {
		pprof.StopCPUProfile()
	}
	res.WallS = end - start
	res.Spans = append(res.Spans, span{"run", start, end})
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	res.HeapSysMB = float64(ms.HeapSys) / (1 << 20)
	if runErr != nil {
		return nil, runErr
	}

	start = since()
	o, verr := s.verify()
	res.Spans = append(res.Spans, span{"verify", start, since()})
	if verr != nil {
		res.Error = verr.Error()
	}
	res.Attempted, res.OK, res.Failed = o.Attempted, o.OK, o.Failed
	res.Ready, res.Bare = o.Ready, o.Bare
	res.Counters = map[string]float64{
		"sim.pending_peak": float64(smp.pendingPeak),
		"sim.windows":      float64(smp.windows),
	}
	for _, smpl := range o.Snapshot.Samples {
		if smpl.Kind == "counter" {
			res.Counters[smpl.Name] += smpl.Value
		}
	}
	if !traced {
		res.Spans = nil
		return res, nil
	}
	for k, v := range wakes.totals() {
		res.Counters[k] = v
	}
	res.Progress = smp.progress
	samples, err := readProfile(profile)
	if err != nil {
		return nil, err
	}
	res.HostS, res.ProfileS = attribute(samples)
	return res, nil
}

func readReplicas(r io.Reader) ([]*replicaResult, error) {
	var reps []*replicaResult
	dec := json.NewDecoder(r)
	for {
		var rr replicaResult
		if err := dec.Decode(&rr); err == io.EOF {
			return reps, nil
		} else if err != nil {
			return nil, fmt.Errorf("reading replica results: %w", err)
		}
		reps = append(reps, &rr)
	}
}

// result is one run of a workload: every replica's outcome pooled.
// Attempted, OK, Failed, Sim and Counts repeat exactly for a seed.
type result struct {
	Workload  string             `json:"workload"`
	Seed      int64              `json:"seed"`
	WallS     float64            `json:"wall_s"` // every replica's run
	HeapSysMB float64            `json:"heap_sys_mb"`
	Attempted int                `json:"attempted"`
	OK        int                `json:"ok"`
	Failed    int                `json:"failed"`
	Error     string             `json:"error,omitempty"`
	Sim       map[string]float64 `json:"sim"`
	Counts    map[string]float64 `json:"counts"`
	HostS     map[string]float64 `json:"host_s,omitempty"`
	ProfileS  float64            `json:"profile_s,omitempty"`
}

// pool combines every replica of one run: latencies are pooled before
// percentiles are taken, counters are summed (the pending-event peak is
// the largest), host times are summed, and the heap is the largest
// replica's.
func pool(reps []*replicaResult) (*result, error) {
	if len(reps) == 0 || len(reps) != reps[0].Replicas {
		return nil, errors.New("pool: need every replica of one run")
	}
	res := &result{Workload: reps[0].Workload, Seed: reps[0].Seed}
	var o outcome
	counters := map[string]float64{}
	var errs []string
	for i, r := range reps {
		if r.Replica != i || r.Workload != res.Workload || r.Seed != res.Seed {
			return nil, fmt.Errorf("pool: replica %d is %s seed %d replica %d", i, r.Workload, r.Seed, r.Replica)
		}
		res.WallS += r.WallS
		res.HeapSysMB = max(res.HeapSysMB, r.HeapSysMB)
		o.Attempted += r.Attempted
		o.OK += r.OK
		o.Failed += r.Failed
		o.Ready = append(o.Ready, r.Ready...)
		o.Bare = append(o.Bare, r.Bare...)
		if r.Error != "" {
			errs = append(errs, r.Error)
		}
		for k, v := range r.Counters {
			if k == "sim.pending_peak" {
				counters[k] = max(counters[k], v)
			} else {
				counters[k] += v
			}
		}
		if r.HostS != nil {
			if res.HostS == nil {
				res.HostS = map[string]float64{}
			}
			for k, v := range r.HostS {
				res.HostS[k] += v
			}
			res.ProfileS += r.ProfileS
		}
	}
	res.Attempted, res.OK, res.Failed = o.Attempted, o.OK, o.Failed
	res.Error = strings.Join(errs, "; ")
	res.Sim = simMetrics(o)
	res.Counts = layerCounts(counters)
	for k, v := range counters {
		if strings.HasPrefix(k, "sim.") {
			res.Counts[k] = v
		}
	}
	return res, nil
}

// simMetrics derives the simulated end-to-end metrics from an outcome.
func simMetrics(o outcome) map[string]float64 {
	ready := sorted(o.Ready)
	tail := tailPercentile(len(ready))
	return map[string]float64{
		"ok_frac":             float64(o.OK) / float64(o.Attempted),
		"ready_p50_sim_s":     percentile(ready, 50).Seconds(),
		"ready_tail_sim_s":    percentile(ready, tail).Seconds(),
		"ready_tail_pct":      float64(tail),
		"ready_n":             float64(len(ready)),
		"baremetal_p50_sim_s": percentile(sorted(o.Bare), 50).Seconds(),
	}
}

// layerCounts derives the per-layer work counts from the registry's
// counters, each summed over its labels (and over replicas).
func layerCounts(c map[string]float64) map[string]float64 {
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	hits := c["vblade.cache_hits"] + c["vblade.coalesced_reads"]
	return map[string]float64{
		"ethernet.frames":          c["ethernet.frames"],
		"ethernet.dropped":         c["ethernet.dropped"],
		"aoe.requests":             c["aoe.requests"],
		"aoe.retransmit_ratio":     ratio(c["aoe.retransmits"], c["aoe.fragments_sent"]),
		"vblade.amplification":     ratio(c["vblade.bytes_served"], c["aoe.bytes_read"]),
		"vblade.cache_hit_rate":    ratio(hits, hits+c["vblade.cache_misses"]),
		"vmm.copied_bytes":         c["vmm.copied_bytes"],
		"vmm.copy_conflicts":       c["vmm.copy_conflicts"],
		"vmm.bitmap_misses":        c["vmm.bitmap_misses"],
		"mediator.redirects":       c["mediator.redirects"],
		"mediator.polls":           c["mediator.polls"],
		"mediator.queued_commands": c["mediator.queued_commands"],
		"cpuvirt.exits":            c["cpuvirt.exits"],
		"cloud.admit.shed":         c["cloud.admit.shed_queue_full"] + c["cloud.admit.shed_deadline"],
		"cloud.quarantines":        c["cloud.quarantines"],
		"vmm.watchdog_fires":       c["vmm.watchdog_fires"],
		"faults.injected":          c["faults.injected"],
		"tenants.completed":        c["tenants.completed"],
	}
}

// sampler wraps the shard set's barrier stop callback: at every barrier
// that lets another window run it counts the window and samples the
// pending-event total, and when tracing it records a progress point per
// simulated second.
type sampler struct {
	set         *sim.ShardSet
	windows     int64
	pendingPeak int

	epoch    time.Time // zero unless tracing
	nextSec  sim.Time
	progress []progress
}

func (s *sampler) wrap(done func() bool) func() bool {
	return func() bool {
		if done() {
			return true
		}
		s.windows++
		pending := s.set.Pending()
		s.pendingPeak = max(s.pendingPeak, pending)
		if !s.epoch.IsZero() {
			for now := s.set.Now(); now >= s.nextSec; s.nextSec += sim.Time(sim.Second) {
				s.progress = append(s.progress, progress{
					SimS: s.nextSec.Seconds(), WallS: time.Since(s.epoch).Seconds(), Pending: pending,
				})
			}
		}
		return false
	}
}

// wakeGroups name the layers whose processes sim.proc_wakes.<group>
// counts; bench is the benchmark's own processes.
var wakeGroups = []string{"core", "mediator", "vblade", "hw", "cloud", "tenants", "bench"}

// wakeGroup names the layer a process belongs to, from its Spawn name.
func wakeGroup(name string) int {
	switch {
	case strings.Contains(name, ".vmm."):
		return 0
	case strings.Contains(name, ".med."):
		return 1
	case strings.HasPrefix(name, "vblade."):
		return 2
	case strings.HasSuffix(name, ".engine"):
		return 3
	case strings.HasPrefix(name, "cloud."):
		return 4
	case strings.HasPrefix(name, "tenants."):
		return 5
	}
	return 6
}

// wakeCounter counts process wakes per group with a hook on every
// domain kernel. Each domain has its own counters, so shard workers
// never share one.
type wakeCounter struct {
	perDomain [][]int64
}

func newWakeCounter(domains []*sim.Kernel) *wakeCounter {
	w := &wakeCounter{perDomain: make([][]int64, len(domains))}
	for i, k := range domains {
		counts := make([]int64, len(wakeGroups))
		w.perDomain[i] = counts
		k.SetProcHook(func(_ sim.Time, ev sim.ProcEvent, name string) {
			if ev == sim.ProcWake {
				counts[wakeGroup(name)]++
			}
		})
	}
	return w
}

func (w *wakeCounter) totals() map[string]float64 {
	out := map[string]float64{}
	var all int64
	for g, name := range wakeGroups {
		var n int64
		for _, counts := range w.perDomain {
			n += counts[g]
		}
		out["sim.proc_wakes."+name] = float64(n)
		all += n
	}
	out["sim.proc_wakes"] = float64(all)
	return out
}
