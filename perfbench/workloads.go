package main

import (
	"fmt"
	//lint:ignore DET002 input generation draws from a generator seeded by --seed
	"math/rand"

	"plasma/internal/actor"
	"plasma/internal/apps/mediaservice"
	"plasma/internal/apps/pagerank"
	"plasma/internal/apps/workload"
	"plasma/internal/cluster"
	"plasma/internal/emr"
	"plasma/internal/epl"
	"plasma/internal/graph"
	"plasma/internal/profile"
	"plasma/internal/sim"
)

// A workload builds one ready-to-run deployment from a seed. build does all
// host work that precedes the first simulated event and reports the
// per-layer share of it in the returned deployment's setup field. Why each
// workload exists is in README.md.
//
// One run simulates `inputs` independent instances, each built from its
// own input seed derived from --seed, and reports the median instance's
// simulated outcomes: one instance's latency percentiles swing with its
// inputs by more than a regression bound can allow.
type workloadDef struct {
	name   string
	inputs int
	build  func(seed int64, obs *observer) (*deployment, error)
}

var workloads = []workloadDef{
	{"pagerank", 6, buildPagerank},
	{"media", 10, buildMedia},
	{"fleet", 4, buildFleet},
}

// inputSeed derives the seed of a run's i-th instance from --seed
// (a splitmix64 step, so nearby seeds give unrelated inputs).
func inputSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

func lookupWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// deployment is one built workload: the simulation stack plus the
// workload's own bookkeeping. Running it is `for k.Step() {}`; the workload
// schedules the kernel's Stop itself.
type deployment struct {
	k    *sim.Kernel
	c    *cluster.Cluster
	rt   *actor.Runtime
	prof *profile.Profiler
	mgr  *emr.Manager

	setup setupCost

	// samples holds the simulated latency of every completed unit of work.
	samples []sim.Duration
	// attempted counts units of work issued; failed those refused or left
	// unanswered (never those still in flight at the horizon).
	attempted int64
	failed    int64

	upSum, upN, upMax int

	edges, edgeCut int64
	// finish collects the workload's results and validates its outputs
	// once the run has ended.
	finish func() error
}

// setupCost is the per-layer host cost of building a deployment.
type setupCost struct {
	graphGenS, graphPartS, graphPartMB float64
	eplCompileS                        float64
	appsBuildS                         float64
}

// newStack creates the kernel, cluster, runtime and profiler every
// workload shares, compiles the policy, and samples the up-server count
// once per simulated second for servers_mean.
func newStack(d *deployment, seed int64, n int, typ cluster.InstanceType, policy string, schema *epl.Schema) (*epl.Policy, error) {
	d.k = sim.New(seed)
	d.c = cluster.New(d.k, n, typ)
	d.rt = actor.NewRuntime(d.k, d.c)
	d.prof = profile.New(d.k, d.c, d.rt)

	t := startCPU()
	pol, err := epl.Parse(policy)
	if err != nil {
		return nil, fmt.Errorf("parse policy: %w", err)
	}
	if _, err := epl.Check(pol, schema); err != nil {
		return nil, fmt.Errorf("check policy: %w", err)
	}
	d.setup.eplCompileS = t.seconds()

	d.k.Every(sim.Second, func() bool {
		up := d.c.UpCount()
		d.upSum += up
		d.upN++
		if up > d.upMax {
			d.upMax = up
		}
		return true
	})
	return pol, nil
}

// startEMR creates and starts the elasticity manager, wiring the traced
// run's observer when there is one.
func (d *deployment) startEMR(pol *epl.Policy, cfg emr.Config, obs *observer) {
	d.mgr = emr.New(d.k, d.c, d.rt, d.prof, pol, cfg)
	if obs != nil {
		obs.attach(d)
	}
	d.mgr.Start()
}

func (d *deployment) serversMean() float64 {
	if d.upN == 0 {
		return 0
	}
	return float64(d.upSum) / float64(d.upN)
}

// ---- pagerank ----------------------------------------------------------

const (
	prVertices   = 24000
	prAvgDeg     = 10
	prExponent   = 2.1
	prWorkers    = 32
	prServers    = 8
	prSupersteps = 1000
)

func buildPagerank(seed int64, obs *observer) (*deployment, error) {
	d := &deployment{}
	t := startCPU()
	g := graph.GeneratePowerLaw(prVertices, prAvgDeg, prExponent, seed)
	d.setup.graphGenS = t.seconds()

	before := heapAllocated()
	t = startCPU()
	parts := graph.PartitionMultilevel(g, prWorkers, seed)
	d.setup.graphPartS = t.seconds()
	d.setup.graphPartMB = float64(heapAllocated()-before) / (1 << 20)
	if err := graph.Validate(parts, g.N, prWorkers); err != nil {
		return nil, fmt.Errorf("pagerank partition: %w", err)
	}
	d.edges = g.NumEdges()
	d.edgeCut = graph.EdgeCut(g, parts)

	pol, err := newStack(d, seed, prServers, cluster.M5Large, pagerank.PolicySrc, pagerank.Schema())
	if err != nil {
		return nil, err
	}
	// Seeded random placement with equal worker counts per server, as in
	// the paper's §5.4 set-up.
	rng := rand.New(rand.NewSource(seed))
	placement := make([]cluster.MachineID, prWorkers)
	for i, p := range rng.Perm(prWorkers) {
		placement[p] = cluster.MachineID(i % prServers)
	}

	t = startCPU()
	app := pagerank.Build(d.k, d.rt, pagerank.Config{
		Graph: g, Parts: parts, K: prWorkers,
		PerEdgeCost: 55 * sim.Microsecond, SyncOverhead: 24 * sim.Millisecond,
		Iterations: prSupersteps, HeteroSpread: 0.5,
	}, placement)
	app.OnIteration = func(iter int, _ sim.Duration) {
		if iter == prSupersteps-1 {
			d.k.Stop()
		}
	}
	d.setup.appsBuildS = t.seconds()

	d.startEMR(pol, emr.Config{Period: sim.Second}, obs)
	app.Start(d.k)
	// A backstop far past any plausible finish; finish reports a run that
	// hits it instead of completing every superstep.
	d.k.At(sim.Time(2*60*sim.Minute), d.k.Stop)

	d.finish = func() error {
		d.samples = app.IterationTimes
		d.attempted = int64(len(app.IterationTimes))
		if !app.Done || len(app.IterationTimes) != prSupersteps {
			return fmt.Errorf("%d of %d supersteps completed", len(app.IterationTimes), prSupersteps)
		}
		return nil
	}
	return d, nil
}

// ---- media -------------------------------------------------------------

const (
	mediaClients = 128
	mediaGenres  = 8
	mediaStart   = 4
	mediaMax     = 65
	mediaThink   = 200 * sim.Millisecond
	mediaPeriod  = 60 * sim.Second
	mediaHorizon = 26 * sim.Minute
)

// mediaLost is how long a request may stay unanswered at the horizon
// before it counts as lost rather than in flight: far above the slowest
// reply seen, about 1.1 s.
const mediaLost = 10 * sim.Second

// mediaClient is one closed-loop client. A leaving client stops issuing
// and releases its actors once its last request is answered, so no
// request is cut off by its own actors going away.
type mediaClient struct {
	id          int
	outstanding bool
	sentAt      sim.Time
	leaving     bool
}

func buildMedia(seed int64, obs *observer) (*deployment, error) {
	d := &deployment{}
	pol, err := newStack(d, seed, mediaStart, cluster.M1Small, mediaservice.PolicySrc, mediaservice.Schema())
	if err != nil {
		return nil, err
	}
	d.c.SetMaxSize(mediaMax)
	// The kernel's Stop is queued before the EMR's first tick, so it fires
	// ahead of every other event at the horizon.
	d.k.At(sim.Time(mediaHorizon), d.k.Stop)

	t := startCPU()
	initial := make([]cluster.MachineID, mediaStart)
	for i := range initial {
		initial[i] = cluster.MachineID(i)
	}
	app := mediaservice.Build(d.k, d.rt, initial, mediaGenres)

	rng := rand.New(rand.NewSource(seed))
	norm := func(mu, sigma sim.Duration) sim.Time {
		x := rng.NormFloat64()*float64(sigma) + float64(mu)
		if x < 0 {
			x = 0
		}
		return sim.Time(x)
	}
	clients := make([]*mediaClient, mediaClients)
	var answered int64
	for i := range clients {
		joinAt := norm(2*sim.Minute, 90*sim.Second)
		leaveAt := norm(19*sim.Minute, 90*sim.Second)
		if stay := joinAt + sim.Time(4*sim.Minute); leaveAt < stay {
			leaveAt = stay
		}
		cl := &mediaClient{}
		clients[i] = cl
		d.k.At(joinAt, func() {
			id, fe := app.AddClient()
			cl.id = id
			watch := false
			loop := &workload.ClosedLoop{
				K: d.k, Client: actor.NewClient(d.rt, 0), Think: mediaThink,
				Next: func() workload.Request {
					d.attempted++
					cl.outstanding = true
					cl.sentAt = d.k.Now()
					watch = !watch
					if watch {
						return workload.Request{Target: fe, Method: "watch", Size: 512}
					}
					return workload.Request{Target: fe, Method: "review", Size: 2 << 10}
				},
				OnReply: func(lat sim.Duration) {
					answered++
					cl.outstanding = false
					d.samples = append(d.samples, lat)
					if cl.leaving {
						app.RemoveClient(cl.id)
					}
				},
			}
			loop.Start()
			d.k.At(leaveAt, func() {
				loop.Stop()
				cl.leaving = true
				if !cl.outstanding {
					app.RemoveClient(cl.id)
				}
			})
		})
	}
	d.setup.appsBuildS = t.seconds()

	d.startEMR(pol, emr.Config{Period: mediaPeriod, ScaleOut: true, ScaleIn: true,
		MinServers: mediaStart, InstanceType: cluster.M1Small}, obs)

	// A closed-loop client whose reply is lost stalls without an error, so
	// a request outstanding for longer than mediaLost at the horizon counts
	// as failed, and any failure fails the run.
	d.finish = func() error {
		shed := d.rt.ShedRequests()
		var inflight, lost int64
		for _, cl := range clients {
			if !cl.outstanding {
				continue
			}
			if d.k.Now()-cl.sentAt > sim.Time(mediaLost) {
				lost++
			} else {
				inflight++
			}
		}
		d.failed = shed + lost
		if d.attempted != answered+shed+lost+inflight {
			return fmt.Errorf("%d requests issued, but %d answered + %d shed + %d lost + %d in flight",
				d.attempted, answered, shed, lost, inflight)
		}
		if d.failed != 0 {
			return fmt.Errorf("%d of %d requests failed (%d shed, %d unanswered for over %v)",
				d.failed, d.attempted, shed, lost, mediaLost)
		}
		return nil
	}
	return d, nil
}

// ---- fleet -------------------------------------------------------------

const (
	fleetWorkers = 64 << 10
	fleetServers = 512
	fleetCycle   = 5 * sim.Second
	fleetPeriods = 20
	// Ticks fire at 1 s … fleetPeriods s; the extra second lets the last
	// period's migrations commit before the horizon.
	fleetHorizon = sim.Time((fleetPeriods + 1) * sim.Second)
	// fleetLost is how late a cycle may be at the horizon before it counts
	// as lost rather than in flight: far above the latest cycle seen, about
	// 0.8 s late.
	fleetLost   = 3 * sim.Second
	fleetPolicy = `server.cpu.perc > 70 or server.cpu.perc < 30 => balance({Worker}, cpu);`
	// Per-cycle CPU cost at ~50% and ~90% utilization of a 1-vCPU server
	// holding 146 workers on a 5 s cycle.
	fleetCostNormal = 17 * sim.Millisecond
	fleetCostHot    = 31 * sim.Millisecond
)

// fleetWorker handles one cycle message: it records how late the cycle
// ran against its schedule, burns its CPU cost, and books its next cycle
// one period after this one was due.
type fleetWorker struct {
	d       *deployment
	cost    sim.Duration
	mem     int64
	init    bool
	first   sim.Time // when the first cycle is due
	handled int64
}

// dueBefore counts the worker's cycles due before t.
func (w *fleetWorker) dueBefore(t sim.Time) int64 {
	if t <= w.first {
		return 0
	}
	return (int64(t-w.first) + int64(fleetCycle) - 1) / int64(fleetCycle)
}

func (w *fleetWorker) Receive(ctx *actor.Context, msg actor.Message) {
	due := msg.Arg.(sim.Time)
	now := ctx.Now()
	if !w.init {
		w.init = true
		ctx.SetMemSize(w.mem)
	}
	w.d.samples = append(w.d.samples, sim.Duration(now-due))
	w.handled++
	ctx.Use(w.cost)
	next := due + sim.Time(fleetCycle)
	ctx.SendAfter(sim.Duration(next-now), ctx.Self(), "cycle", next, 64)
}

func buildFleet(seed int64, obs *observer) (*deployment, error) {
	d := &deployment{}
	schema := epl.NewSchema(epl.Class("Worker", []string{"cycle"}, nil))
	pol, err := newStack(d, seed, fleetServers, cluster.M1Small, fleetPolicy, schema)
	if err != nil {
		return nil, err
	}
	d.k.At(fleetHorizon, d.k.Stop)

	t := startCPU()
	rng := rand.New(rand.NewSource(seed))
	// One eighth of the servers are idle spares and one eighth are hot;
	// workers go round-robin over the rest.
	order := rng.Perm(fleetServers)
	hot := make([]bool, fleetServers)
	for _, s := range order[fleetServers/8 : fleetServers/4] {
		hot[s] = true
	}
	loaded := order[fleetServers/8:]
	clients := make([]*actor.Client, fleetServers)
	for _, s := range loaded {
		clients[s] = actor.NewClient(d.rt, cluster.MachineID(s))
	}
	workers := make([]actor.Ref, fleetWorkers)
	state := make([]*fleetWorker, fleetWorkers)
	for i := range workers {
		srv := loaded[i%len(loaded)]
		cost := fleetCostNormal
		if hot[srv] {
			cost = fleetCostHot
		}
		w := &fleetWorker{d: d,
			cost: sim.Duration(float64(cost) * (0.8 + 0.4*rng.Float64())),
			mem:  int64(256<<10 + rng.Intn(768<<10)),
		}
		ref := d.rt.SpawnOn("Worker", w, cluster.MachineID(srv))
		workers[i], state[i] = ref, w
		due := sim.Time(rng.Int63n(int64(fleetCycle)))
		w.first = due
		cl := clients[srv]
		d.k.At(due, func() { cl.Send(ref, "cycle", due, 64) })
	}
	d.setup.appsBuildS = t.seconds()

	d.startEMR(pol, emr.Config{Period: sim.Second, NumGEMs: 1}, obs)

	// attempted counts the cycles due before the horizon. A Worker whose
	// cycle message is lost stops cycling without an error, so a cycle due
	// more than fleetLost before the horizon and not yet handled counts as
	// failed, and any failure fails the run.
	d.finish = func() error {
		for i, w := range state {
			due := w.dueBefore(fleetHorizon)
			if w.handled > due {
				return fmt.Errorf("worker %v handled %d cycles, but only %d were due", workers[i], w.handled, due)
			}
			d.attempted += due
			d.failed += max(w.dueBefore(fleetHorizon-sim.Time(fleetLost))-w.handled, 0)
		}
		if d.failed != 0 {
			return fmt.Errorf("%d of %d cycles were not handled within %v of being due", d.failed, d.attempted, fleetLost)
		}
		if n := d.rt.InFlightMigrations(); n != 0 {
			return fmt.Errorf("%d migrations still in flight at the horizon", n)
		}
		seen := make(map[actor.ID]int, len(workers))
		for _, m := range d.c.UpMachines() {
			for _, ref := range d.rt.ActorsOn(m.ID) {
				seen[ref.ID]++
			}
		}
		for _, ref := range workers {
			if seen[ref.ID] != 1 {
				return fmt.Errorf("worker %v is on %d up servers", ref, seen[ref.ID])
			}
		}
		return nil
	}
	return d, nil
}
