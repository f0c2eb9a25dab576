// Command perfbench is the repository's benchmark. It builds one of three
// workloads from a seed on the sequential kernel, runs it repeatedly for a
// fixed host-time budget, checks the outputs, and prints every metric with
// its unit followed by a one-line JSON result. With -trace 1 it also runs a
// traced copy of each repetition and reports per-layer metrics instead.
// See README.md for the workloads, the metrics and the method.
//
//	go run . --workload media --seed 1 --seconds 30 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"plasma/internal/sim"
)

func main() {
	name := flag.String("workload", "", "workload to run: pagerank, media or fleet")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Int("seconds", 20, "host seconds of repetitions to measure")
	traced := flag.Int("trace", 0, "1 reports per-layer metrics from traced runs")
	flag.Parse()

	w, ok := lookupWorkload(*name)
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload pagerank|media|fleet, --seconds >= 1 and --trace 0|1\n")
		os.Exit(2)
	}
	// The simulation is one goroutine. With more than one P the garbage
	// collector's idle mark workers spin on the other CPUs, and that CPU
	// time would be counted and would vary with the machine's CPU count.
	runtime.GOMAXPROCS(1)
	res, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	res.print(os.Stdout)
}

// wallClock keeps a run within its budget, which is wall time.
type wallClock struct{ t time.Time }

func startWall() wallClock {
	//lint:ignore DET001 the run's budget is host wall time by design
	return wallClock{time.Now()}
}

func (c wallClock) seconds() float64 { return time.Since(c.t).Seconds() }

// cpuClock measures the process's CPU time, user plus system, over all its
// threads. Timings use it rather than wall time: on a shared virtual
// machine the wall time of the same work swings with the CPU time other
// guests steal, which CPU time does not count.
type cpuClock struct{ t float64 }

func startCPU() cpuClock { return cpuClock{cpuSeconds()} }

func (c cpuClock) seconds() float64 { return cpuSeconds() - c.t }

func cpuSeconds() float64 {
	ru := rusage()
	return float64(ru.Utime.Sec+ru.Stime.Sec) + float64(ru.Utime.Usec+ru.Stime.Usec)/1e6
}

// peakRSSMB reports the process's peak resident set size.
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 } // Linux reports KiB

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return ru
}

func heapAllocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// rep is one repetition: a build and a run of one instance.
type rep struct {
	setupS, simS, allocMB float64
	fp                    fingerprint
	setup                 setupCost
	obs                   *observer // nil for an untraced repetition
}

// fingerprint is everything a repetition computes that must repeat bit for
// bit for the same input seed: exact counters and simulated outcomes.
type fingerprint struct {
	Events      uint64
	PeakQueue   int
	Attempted   int64
	Failed      int64
	Samples     int
	P50, P99    float64 // simulated ms
	ServersMean float64
	UpMax       int
	Migrations  int
	MigFailed   int
	Shed        int64
	Messages    int64
	Provisions  int
	Edges       int64
	EdgeCut     int64
	EMR         emrStats
}

// emrStats mirrors the emr.Stats counters the benchmark reports.
type emrStats struct {
	Ticks, PlannedActions, DeniedAdmissions, ResolvedConflicts, ScaleOuts, ScaleIns int
}

// runRep builds and runs one instance. obs, when non-nil, is the traced
// run's instrumentation.
func runRep(w workloadDef, seed int64, obs *observer) (*rep, error) {
	runtime.GC()
	before := heapAllocated()
	t := startCPU()
	d, err := w.build(seed, obs)
	if err != nil {
		return nil, err
	}
	r := &rep{setupS: t.seconds(), setup: d.setup, obs: obs}
	t = startCPU()
	if obs != nil {
		obs.run(d.k)
	} else {
		for d.k.Step() {
		}
	}
	r.simS = t.seconds()
	r.allocMB = float64(heapAllocated()-before) / (1 << 20)

	if err := d.finish(); err != nil {
		return nil, err
	}
	samples := make([]float64, len(d.samples))
	for i, s := range d.samples {
		samples[i] = float64(s) / float64(sim.Millisecond)
	}
	sort.Float64s(samples)
	p50, err := percentile(samples, 0.50)
	if err != nil {
		return nil, err
	}
	p99, err := percentile(samples, 0.99)
	if err != nil {
		return nil, err
	}
	st := d.k.Stats()
	es := d.mgr.Stats
	r.fp = fingerprint{
		Events: st.Fired, PeakQueue: st.PeakQueue,
		Attempted: d.attempted, Failed: d.failed, Samples: len(samples),
		P50: p50, P99: p99,
		ServersMean: d.serversMean(), UpMax: d.upMax,
		Migrations: d.rt.Migrations(), MigFailed: d.rt.FailedMigrations(),
		Shed: d.rt.ShedRequests(), Messages: d.prof.Messages(),
		Provisions: d.c.Provisions(),
		Edges:      d.edges, EdgeCut: d.edgeCut,
		EMR: emrStats{Ticks: es.Ticks, PlannedActions: es.PlannedActions,
			DeniedAdmissions: es.DeniedAdmissions, ResolvedConflicts: es.ResolvedConflicts,
			ScaleOuts: es.ScaleOuts, ScaleIns: es.ScaleIns},
	}
	return r, nil
}

// setupBatchS is the least CPU time one setup_s sample covers. A cheaper
// set-up is built again until its builds reach that much, and the sample is
// their mean, so that a sample of a fraction of a millisecond is not set
// by clock granularity and per-build jitter.
const setupBatchS = 0.02

// measure runs repetitions for the budget and returns the result, or an
// error when a run fails or an output check does not hold.
//
// Untraced, repetition i simulates instance i mod w.inputs, and at least
// one instance runs twice, so the run both covers all of its inputs and
// checks that an input reproduces its outcome exactly. The reference loop
// runs before the first repetition and after each one, to put host times
// on the calibrated scale (see referenceSeconds). Traced, every
// repetition is an untraced and a traced run of instance 0, which must
// agree.
func measure(w workloadDef, seed int64, budget time.Duration, traced bool) (*result, error) {
	start := startWall()
	var plain, tracedReps []*rep
	var setupS, refs []float64
	if !traced {
		refs = append(refs, referenceSeconds())
	}
	for i := 0; ; i++ {
		t := startWall()
		in := i % w.inputs
		if traced {
			in = 0
		}
		r, err := runRep(w, inputSeed(seed, in), nil)
		if err != nil {
			return nil, err
		}
		plain = append(plain, r)
		if traced {
			tr, err := runRep(w, inputSeed(seed, in), newObserver())
			if err != nil {
				return nil, err
			}
			tracedReps = append(tracedReps, tr)
		} else {
			x, err := setupSample(w, inputSeed(seed, in), r)
			if err != nil {
				return nil, err
			}
			setupS = append(setupS, x)
			refs = append(refs, referenceSeconds())
		}
		last := t.seconds()
		enough := traced || len(plain) > w.inputs
		if enough && start.seconds()+last > budget.Seconds() {
			break
		}
	}
	if traced {
		other, err := runRep(w, inputSeed(seed, 1), nil)
		if err != nil {
			return nil, err
		}
		if err := checkDeterminism(plain, tracedReps, 1, other); err != nil {
			return nil, err
		}
		return newTracedResult(w, plain, tracedReps), nil
	}
	if err := checkDeterminism(plain, nil, w.inputs, plain[1]); err != nil {
		return nil, err
	}
	return newResult(w, plain, setupS, refs), nil
}

// setupSample is one setup_s sample from repetition r, which built the
// instance with input seed seed: r's own build time or, when that is under
// setupBatchS, the mean over r's build and as many further builds of the
// same instance as it takes to reach setupBatchS.
func setupSample(w workloadDef, seed int64, r *rep) (float64, error) {
	if r.setupS >= setupBatchS {
		return r.setupS, nil
	}
	runtime.GC()
	t := startCPU()
	n := 1
	for r.setupS+t.seconds() < setupBatchS {
		if _, err := w.build(seed, nil); err != nil {
			return 0, err
		}
		n++
	}
	return (r.setupS + t.seconds()) / float64(n), nil
}

// checkDeterminism requires each repetition to reproduce the exact outcome
// of the first repetition of the same instance (untraced repetition i runs
// instance i mod inputs; traced repetition i pairs with untraced
// repetition i), and another instance, other, to differ from instance 0:
// if it did not, the seed would not be reaching the inputs.
func checkDeterminism(plain, traced []*rep, inputs int, other *rep) error {
	if other.fp == plain[0].fp {
		return errors.New("two input seeds gave the same exact outcome; the seed does not reach the inputs")
	}
	for i, r := range plain {
		if want := plain[i%inputs].fp; r.fp != want {
			return fmt.Errorf("repetition %d diverged at a fixed seed:\n  got  %+v\n  want %+v", i, r.fp, want)
		}
	}
	for i, r := range traced {
		if want := plain[i].fp; r.fp != want {
			return fmt.Errorf("traced repetition %d diverged from the untraced run:\n  got  %+v\n  want %+v", i, r.fp, want)
		}
		if r.obs.perKind != traced[0].obs.perKind || r.obs.snapshotRows != traced[0].obs.snapshotRows {
			return fmt.Errorf("traced repetition %d recorded a different trace", i)
		}
	}
	return nil
}
