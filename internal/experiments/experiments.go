// Package experiments reproduces every table and figure of PLASMA's
// evaluation (§5) on the simulated cluster: each experiment builds the
// paper's workload, runs the same comparisons, and reports the same rows or
// series. Absolute numbers differ from the AWS testbed; the shapes — who
// wins, by roughly what factor, where crossovers fall — are the deliverable
// (see EXPERIMENTS.md for the paper-vs-measured record).
package experiments

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	"plasma/internal/emr"
	"plasma/internal/metrics"
	"plasma/internal/sim"
	"plasma/internal/trace"
)

// Result is one experiment's output.
type Result struct {
	ID    string // e.g. "fig5"
	Title string

	Header []string
	Rows   [][]string

	// Series holds named traces for figure-style results.
	Series map[string]*metrics.Series
	// Summary holds the key scalar findings (also consumed by benchmarks).
	Summary map[string]float64
	// Notes records observations comparing against the paper's claims.
	Notes []string

	// EventsFired and PeakQueue aggregate simulation-kernel effort across
	// every kernel the run created (filled by Run, consumed by
	// cmd/plasma-bench for events/sec and queue-pressure reporting). They
	// are not rendered: Render output stays bit-identical per seed.
	EventsFired uint64
	PeakQueue   int
}

func newResult(id, title string) *Result {
	return &Result{
		ID:      id,
		Title:   title,
		Series:  map[string]*metrics.Series{},
		Summary: map[string]float64{},
	}
}

func (r *Result) addRow(cells ...string) { r.Rows = append(r.Rows, cells) }

func (r *Result) notef(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// Render formats the result as an aligned text table plus summary lines.
func (r *Result) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", r.ID, r.Title)
	if len(r.Header) > 0 || len(r.Rows) > 0 {
		widths := make([]int, len(r.Header))
		rows := append([][]string{r.Header}, r.Rows...)
		for _, row := range rows {
			for i, c := range row {
				for i >= len(widths) {
					widths = append(widths, 0)
				}
				if len(c) > widths[i] {
					widths[i] = len(c)
				}
			}
		}
		for ri, row := range rows {
			for i, c := range row {
				fmt.Fprintf(&sb, "%-*s  ", widths[i], c)
			}
			sb.WriteByte('\n')
			if ri == 0 && len(r.Header) > 0 {
				for i := range r.Header {
					sb.WriteString(strings.Repeat("-", widths[i]) + "  ")
				}
				sb.WriteByte('\n')
			}
		}
	}
	if len(r.Summary) > 0 {
		keys := make([]string, 0, len(r.Summary))
		for k := range r.Summary {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&sb, "summary %-40s %.4g\n", k, r.Summary[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// Config scales experiments: Full reproduces the paper's setup sizes;
// the default (quick) configuration shrinks workloads so the entire
// evaluation runs in seconds, preserving every comparison's shape.
type Config struct {
	Full bool
	Seed int64

	// Trace, when non-nil, receives the structured decision trace of every
	// EMR the experiment builds (see internal/trace). Experiments that run
	// several kernels sequentially re-point its clock at each new kernel,
	// so record timestamps are always the active kernel's virtual time.
	Trace *trace.Tracer

	// stats, when non-nil, collects every kernel created through
	// Config.kernel/kernelSeeded so Run can aggregate event counts and
	// queue depths (set internally by Run).
	stats *simTracker
}

func (c Config) seed() int64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// kernel builds the experiment's simulation kernel from the configured
// seed, registering it for perf accounting when the run is traced.
func (c Config) kernel() *sim.Kernel { return c.kernelSeeded(c.seed()) }

// kernelSeeded is kernel for experiments that derive several seeds from
// the base one (multi-seed averaging, chaos schedules).
func (c Config) kernelSeeded(seed int64) *sim.Kernel {
	k := sim.New(seed)
	if c.stats != nil {
		c.stats.add(k)
	}
	c.Trace.SetClock(k.Now)
	return k
}

// runSeeds runs one independent trial per seed (seed base, base+1, ...) and
// returns the trials' results in seed order. Each trial must build its own
// kernel via cfg.kernelSeeded, so trials share no simulation state and the
// index-ordered result slice is deterministic no matter how trials are
// scheduled. Untraced trials run on a goroutine pool; traced runs stay
// sequential because the tracer's clock is re-pointed at each new kernel
// and record order must remain byte-identical per seed.
func runSeeds[T any](cfg Config, seeds int, trial func(idx int, seed int64) T) []T {
	out := make([]T, seeds)
	base := cfg.seed()
	if cfg.Trace != nil || seeds <= 1 {
		for i := range out {
			out[i] = trial(i, base+int64(i))
		}
		return out
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > seeds {
		workers = seeds
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = trial(i, base+int64(i))
			}
		}()
	}
	for i := 0; i < seeds; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// wireTrace hands the configured tracer to a freshly built EMR manager
// (which fans it out to the actor runtime, cluster, and chaos injector).
// No-op when tracing is off.
func (c Config) wireTrace(m *emr.Manager) {
	if c.Trace != nil {
		m.SetTracer(c.Trace)
	}
}

// simTracker accumulates the kernels an experiment creates; totals are
// read once the experiment function returns (all kernels idle by then).
// The mutex covers registration from runSeeds' trial goroutines.
type simTracker struct {
	mu      sync.Mutex
	kernels []*sim.Kernel
}

func (t *simTracker) add(k *sim.Kernel) {
	t.mu.Lock()
	t.kernels = append(t.kernels, k)
	t.mu.Unlock()
}

func (t *simTracker) totals() (fired uint64, peak int) {
	for _, k := range t.kernels {
		st := k.Stats()
		fired += st.Fired
		if st.PeakQueue > peak {
			peak = st.PeakQueue
		}
	}
	return fired, peak
}

// Registry maps experiment ids to runners.
var Registry = map[string]func(Config) *Result{
	"table1": Table1,
	"table3": Table3,
	"fig5":   Fig5,
	"fig6a":  Fig6a,
	"fig6b":  Fig6b,
	"fig7a":  Fig7a,
	"fig7bc": Fig7bc,
	"fig8":   Fig8,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"fig11a": Fig11a,
	"fig11b": Fig11b,
	"fig11c": Fig11c,
	"chaos":  Chaos,

	// Beyond-the-paper scalability family (Fig. 11c's question asked at
	// fleet sizes the testbed could not reach; see EXPERIMENTS.md).
	"scale":      Scale,
	"scale_snap": ScaleSnap,

	// Burst/failure robustness family: provisioning spectrum vs flash
	// crowds, diurnal waves, correlated region failover, and a flash crowd
	// composed with a GEM crash (see EXPERIMENTS.md).
	"burst_flash":   BurstFlash,
	"burst_diurnal": BurstDiurnal,
	"burst_region":  BurstRegion,
	"burst_chaos":   BurstChaos,

	// Batched-planner family: the batch multi-resource planner raced
	// against the legacy greedy round on the paper's own workloads, all
	// else pinned (see DESIGN.md §11 and EXPERIMENTS.md).
	"plan_pagerank": PlanPagerank,
	"plan_halo":     PlanHalo,

	// Windowed streaming family: skew-shift recovery race against the
	// Elasticutor-style executor-level key repartitioner, hot-set drift,
	// window spikes, and a shift composed with a GEM crash (see
	// EXPERIMENTS.md).
	"stream_skew":  StreamSkew,
	"stream_drift": StreamDrift,
	"stream_spike": StreamSpike,
	"stream_chaos": StreamChaos,
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	ids := make([]string, 0, len(Registry))
	for id := range Registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// Run executes one experiment by id and fills the result's kernel-effort
// counters (EventsFired, PeakQueue).
func Run(id string, cfg Config) (*Result, error) {
	fn, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown id %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	tr := &simTracker{}
	cfg.stats = tr
	res := fn(cfg)
	res.EventsFired, res.PeakQueue = tr.totals()
	return res, nil
}

func ms(x float64) string { return fmt.Sprintf("%.1f ms", x) }

func pct(x float64) string { return fmt.Sprintf("%.1f%%", x) }
