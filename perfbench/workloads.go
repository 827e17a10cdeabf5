package main

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/cloud"
	"repro/internal/experiments"
	"repro/internal/hw/disk"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tenants"
	"repro/internal/testbed"
	"repro/internal/workload"
)

// size scales one workload. The benchmark runs benchSize; tests run
// smaller ones.
type size struct {
	// Replicas is how many independent copies of the scenario one run
	// simulates, one after another, each from its own seed; their
	// outcomes are pooled.
	Replicas   int
	Nodes      int   // instances (fleet, deploy-io) or pool machines (elasticity)
	ImageBytes int64 // the OS image
	BootBytes  int64 // each guest's boot read volume
	// WriteBytes and ReadBytes are each deploy-io guest's direct I/O.
	WriteBytes, ReadBytes int64
}

// benchSize is each workload's size in the benchmark. README.md gives the
// reasons for each.
func benchSize(workload string) (size, error) {
	switch workload {
	case "fleet":
		return size{Replicas: 1, Nodes: 48, ImageBytes: 64 << 20, BootBytes: 24 << 20}, nil
	case "elasticity":
		return size{Replicas: 3, Nodes: 24, ImageBytes: 16 << 20, BootBytes: 8 << 20}, nil
	case "deploy-io":
		return size{Replicas: 1, Nodes: 8, ImageBytes: 512 << 20, BootBytes: 16 << 20,
			WriteBytes: 64 << 20, ReadBytes: 128 << 20}, nil
	}
	return size{}, fmt.Errorf("unknown workload %q (want fleet, elasticity or deploy-io)", workload)
}

// Fleet cache sizing, as in the experiments fleet cell: a 1 GB serving
// cache in 128 KB extents.
const (
	fleetCacheBudget   = 1 << 30
	fleetExtentSectors = 256
)

// outcome is what one replica produced in simulated terms. Ready and Bare
// hold one latency per attempted operation; an operation that never got
// there holds the scenario's horizon, so it sorts last.
type outcome struct {
	Attempted int
	OK        int
	Ready     []sim.Duration
	Bare      []sim.Duration
	Snapshot  metrics.Snapshot
	// Failed counts operations that went wrong: instances that never
	// became ready, nodes that failed verification, elasticity requests
	// that never resolved.
	Failed int
}

// scenario is one assembled workload, ready to run from simulated time 0.
type scenario struct {
	tb *testbed.Testbed
	// run drives the simulation to the workload's end. Every barrier stop
	// callback it passes to the shard set goes through wrap first.
	run func(wrap func(done func() bool) func() bool) error
	// verify checks the end state and reports the outcome.
	verify func() (outcome, error)
	// readySnap is fleet's registry when the last instance became ready,
	// the point where the experiments fleet cell stops.
	readySnap metrics.Snapshot
}

// build assembles one replica of a workload. Its seed seeds the testbed
// and the guests' boot trace; in elasticity it also drives the tenant
// arrivals, holds and retry jitter.
func build(workload string, seed int64, shards int, sz size) (*scenario, error) {
	switch workload {
	case "fleet":
		return buildFleet(seed, shards, sz), nil
	case "elasticity":
		return buildElasticity(seed, shards, sz)
	case "deploy-io":
		return buildDeployIO(seed, shards, sz), nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// buildFleet assembles the experiments fleet cell (FleetRun, cache on):
// every instance requested at t=0 from one cache-enabled vblade, run
// until all are ready and then on until all reach bare metal, as the
// cell's traced run does. It is rebuilt here rather than called so that
// set-up is timed on its own and the barrier callback can be sampled;
// TestFleetMatchesCell pins that it simulates exactly what FleetRun does.
func buildFleet(seed int64, shards int, sz size) *scenario {
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = seed
	tcfg.ImageBytes = sz.ImageBytes
	tcfg.Shards = shards
	tb := testbed.New(tcfg)
	tb.Server.EnableCache(fleetCacheBudget, fleetExtentSectors)
	c := cloud.NewController(tb, tcfg, sz.Nodes)
	c.BootProfile.TotalBytes = sz.BootBytes
	c.BootProfile.Seed = seed
	for _, n := range tb.Nodes {
		n.M.Firmware.InitTime = 2 * sim.Second
	}
	done := 0
	var errs []error
	for i := 0; i < sz.Nodes; i++ {
		tb.K.Spawn("bench.tenant", func(p *sim.Proc) {
			in, err := c.Request(cloud.StrategyBMcast)
			if err == nil && !in.WaitReady(p) {
				err = in.Err()
			}
			if err != nil {
				errs = append(errs, err)
			}
			done++
		})
	}
	s := &scenario{tb: tb}
	s.run = func(wrap func(func() bool) func() bool) error {
		tb.ShardRun(wrap(func() bool { return done >= sz.Nodes }))
		if done < sz.Nodes {
			return fmt.Errorf("fleet: %d of %d instances resolved before the simulation went quiet", done, sz.Nodes)
		}
		s.readySnap = tb.Metrics.Snapshot()
		tb.ShardRun(wrap(func() bool { return allBareMetal(c) }))
		return nil
	}
	s.verify = func() (outcome, error) {
		o := outcome{Attempted: sz.Nodes, Failed: len(errs), Snapshot: tb.Metrics.Snapshot()}
		horizon := tb.K.Now().Sub(0)
		for _, in := range c.Instances() {
			ready, bare := horizon, horizon
			if in.State() == cloud.StateReady && in.BareMetalAt != 0 {
				o.OK++
				ready, bare = in.TimeToReady(), in.TimeToBareMetal()
			}
			o.Ready = append(o.Ready, ready)
			o.Bare = append(o.Bare, bare)
		}
		if o.Failed = o.Attempted - o.OK; o.Failed > 0 {
			errs = append(errs, fmt.Errorf("fleet: %d of %d instances reached bare metal", o.OK, o.Attempted))
		}
		return o, errors.Join(errs...)
	}
	return s
}

// buildElasticity assembles the experiments elasticity cell
// (ElasticityRun): the registry's storm and tenant profile against a
// machine pool, run until the traffic drains. TestElasticityMatchesCell
// pins that it simulates exactly what ElasticityRun does.
func buildElasticity(seed int64, shards int, sz size) (*scenario, error) {
	profile := experiments.ElasticProfile()
	storm := experiments.ElasticStorm()
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = seed
	tcfg.Shards = shards
	tcfg.ImageBytes = sz.ImageBytes
	if min := 2 * tcfg.ImageBytes / disk.SectorSize; tcfg.DiskSectors < min {
		tcfg.DiskSectors = min
	}
	tb := testbed.New(tcfg)
	c := cloud.NewController(tb, tcfg, sz.Nodes)
	c.BootProfile.TotalBytes = sz.BootBytes
	c.BootProfile.Seed = seed
	c.BootProfile.CPUTime = 2 * sim.Second
	c.VMMConfig.WriteInterval = 2 * sim.Millisecond
	c.VMMConfig.StallTimeout = 4 * sim.Second
	c.Retry = cloud.RetryPolicy{
		Budget:      3,
		BaseBackoff: sim.Second,
		MaxBackoff:  8 * sim.Second,
		JitterFrac:  0.2,
		LeaseWait:   20 * sim.Second,
	}
	c.Health = cloud.HealthPolicy{FailThreshold: 2, Probation: 20 * sim.Second}
	for _, n := range tb.Nodes {
		n.M.Firmware.InitTime = 2 * sim.Second
	}
	f := cloud.NewFrontend(c, cloud.AdmissionConfig{QueueLimit: 10, TokenRate: 2, TokenBurst: 4})
	inj := tb.NewFaultInjector()
	if err := inj.Apply(storm.Schedule()); err != nil {
		return nil, fmt.Errorf("elasticity: storm: %w", err)
	}
	g := tenants.NewGenerator(tb.K, f, tb.Metrics, profile)
	g.Start()
	drained := false
	tb.K.Spawn("bench.waiter", func(p *sim.Proc) {
		g.WaitDrained(p)
		drained = true
	})
	horizon := sim.Time(profile.Duration + sim.Hour)

	s := &scenario{tb: tb}
	s.run = func(wrap func(func() bool) func() bool) error {
		tb.Set.RunUntil(horizon, wrap(func() bool { return drained }))
		if !drained {
			return fmt.Errorf("elasticity: traffic never drained by %v", horizon)
		}
		return nil
	}
	s.verify = func() (outcome, error) {
		o := outcome{Snapshot: tb.Metrics.Snapshot()}
		reqs := f.Requests()
		o.Attempted = len(reqs)
		for _, r := range reqs {
			ready, bare := horizon.Sub(0), horizon.Sub(0)
			switch in := r.Instance(); {
			case !r.Done():
				o.Failed++
			case r.Err() == nil && in.ReadyAt != 0:
				o.OK++
				ready = in.ReadyAt.Sub(r.SubmittedAt)
				if in.BareMetalAt != 0 {
					bare = in.BareMetalAt.Sub(r.SubmittedAt)
				}
			}
			o.Ready = append(o.Ready, ready)
			o.Bare = append(o.Bare, bare)
		}
		var err error
		if gen := g.Generated.Value(); gen != int64(o.Attempted) {
			err = fmt.Errorf("elasticity: %d arrivals generated, %d submitted", gen, o.Attempted)
		}
		if f.MaxQueueDepth > 10 {
			err = errors.Join(err, fmt.Errorf("elasticity: admission queue reached %d, limit 10", f.MaxQueueDepth))
		}
		return o, err
	}
	return s, nil
}

// buildDeployIO assembles the copy-on-read workload: every node deploys
// the image to bare metal, and once its guest is up it writes WriteBytes
// and then reads ReadBytes of sequential 1 MB direct I/O from the same
// offset while the background copy runs. Every node's disk is verified
// afterwards.
func buildDeployIO(seed int64, shards int, sz size) *scenario {
	tcfg := testbed.DefaultConfig()
	tcfg.Seed = seed
	tcfg.ImageBytes = sz.ImageBytes
	tcfg.Shards = shards
	tb := testbed.New(tcfg)
	c := cloud.NewController(tb, tcfg, sz.Nodes)
	c.BootProfile.TotalBytes = sz.BootBytes
	c.BootProfile.Seed = seed
	c.BootProfile.CPUTime = 2 * sim.Second
	for _, n := range tb.Nodes {
		n.M.Firmware.InitTime = 2 * sim.Second
	}
	// The guest I/O starts a quarter into the image, so the reads cover
	// both guest-written and not-yet-copied image blocks.
	base := sz.ImageBytes / 4 / disk.SectorSize
	done := 0
	var errs []error
	for i := 0; i < sz.Nodes; i++ {
		tb.K.Spawn("bench.tenant", func(p *sim.Proc) {
			defer func() { done++ }()
			in, err := c.Request(cloud.StrategyBMcast)
			if err == nil && !in.WaitReady(p) {
				err = in.Err()
			}
			if err != nil {
				errs = append(errs, err)
				return
			}
			// The guest I/O runs on the node's own domain; its result
			// comes back to this hub process through a signal.
			n := in.Node
			ioDone := tb.K.NewSignal("bench.io")
			var ioErr error
			finished := false
			tb.RunOnNode(n, "bench.io", func(np *sim.Proc) {
				_, e := workload.Fio(np, n.OS, true, sz.WriteBytes, 1<<20, base)
				if e == nil {
					_, e = workload.Fio(np, n.OS, false, sz.ReadBytes, 1<<20, base)
				}
				tb.PostToHub(np.Kernel(), func() {
					ioErr, finished = e, true
					ioDone.Broadcast()
				})
			})
			p.WaitCond(ioDone, func() bool { return finished })
			if ioErr != nil {
				errs = append(errs, fmt.Errorf("deploy-io: guest I/O on %s: %w", n.M.Name, ioErr))
				return
			}
			if !in.WaitBareMetal(p) {
				errs = append(errs, fmt.Errorf("deploy-io: %s never reached bare metal: %w", n.M.Name, in.Err()))
			}
		})
	}
	s := &scenario{tb: tb}
	s.run = func(wrap func(func() bool) func() bool) error {
		tb.ShardRun(wrap(func() bool { return done >= sz.Nodes }))
		if done < sz.Nodes {
			return fmt.Errorf("deploy-io: %d of %d nodes finished before the simulation went quiet", done, sz.Nodes)
		}
		return nil
	}
	s.verify = func() (outcome, error) {
		o := outcome{Attempted: sz.Nodes, Snapshot: tb.Metrics.Snapshot()}
		horizon := tb.K.Now().Sub(0)
		written := sz.WriteBytes / disk.SectorSize
		for _, in := range c.Instances() {
			ready, bare := horizon, horizon
			err := verifyNode(tb, in, written)
			if err == nil {
				o.OK++
				ready, bare = in.TimeToReady(), in.TimeToBareMetal()
			} else {
				o.Failed++
				errs = append(errs, err)
			}
			o.Ready = append(o.Ready, ready)
			o.Bare = append(o.Bare, bare)
		}
		return o, errors.Join(errs...)
	}
	return s
}

// verifyNode checks one deploy-io node: it reached bare metal, its disk
// holds the image everywhere the guest did not write, and every sector
// the guest wrote still holds the guest's data, so the background copy
// overwrote none of it.
func verifyNode(tb *testbed.Testbed, in *cloud.Instance, written int64) error {
	if in.BareMetalAt == 0 {
		return fmt.Errorf("deploy-io: %s did not reach bare metal", in.Node.M.Name)
	}
	counts, err := tb.VerifyDeployment(in.Node)
	if err != nil {
		return fmt.Errorf("deploy-io: %s: %w", in.Node.M.Name, err)
	}
	if got := counts["fio"]; got != written {
		return fmt.Errorf("deploy-io: %s holds %d guest-written sectors, want %d", in.Node.M.Name, got, written)
	}
	return nil
}

// percentile is the nearest-rank p-th percentile of sorted (p in (0, 100]).
func percentile(sorted []sim.Duration, p int) sim.Duration {
	if len(sorted) == 0 {
		return 0 // every replica crashed
	}
	rank := (p*len(sorted) + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentile is the highest whole percentile below 100 with at least
// ten samples beyond it, or 100 (the maximum) when n is too small for one.
func tailPercentile(n int) int {
	for p := 99; p >= 1; p-- {
		if n-(p*n+99)/100 >= 10 {
			return p
		}
	}
	return 100
}

func sorted(ds []sim.Duration) []sim.Duration {
	out := append([]sim.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// allBareMetal reports whether every lease finished its hand-off.
func allBareMetal(c *cloud.Controller) bool {
	for _, in := range c.Instances() {
		if in.BareMetalAt == 0 {
			return false
		}
	}
	return true
}
