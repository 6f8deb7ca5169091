// Command perfbench is RFly's benchmark: it runs one workload, checks
// that the program's outputs are correct, and prints every end-to-end
// metric (or, with -trace 1, every per-layer metric) by name and unit.
// The last line of standard output is the machine-readable result.
//
//	bash perfbench/run.sh --workload fig6_rebuild --seed 1 --seconds 25 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 5
//
// Every layer is measured from outside, by timing calls into its public
// functions, plus the Observer tick hook, the spans the program already
// records, and the obs.Default() counters and /metrics it already
// exposes. Each per-layer metric lists the end-to-end metric it should
// move and on which workload (layers.go).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"strings"
)

// setupRepeats is how many times a run builds its workload; setup_s is
// the median.
const setupRepeats = 3

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name, why string
	run       func(ctx context.Context, seed uint64, seconds float64, traced bool) (*report, error)
}

var workloads = []workload{
	{
		name: "fig6_rebuild",
		why:  "Fig. 6 corridor mission, 6 sorties x 600 ticks, checkpoint+Restore after each sortie, log replayed; closed loop, 1000 ms limit; loads rebuild, isolation, checkpoint, capture",
		run: missionShape{
			sorties: 6, ticks: 600, sarPoints: 1, tags: fig6Tags, rebuild: true,
		}.run,
	},
	{
		name: "survey_dense",
		why:  "1 sortie x 3000 ticks, 8 tags, 40-point SAR; closed loop, 1000 ms limit; loads link budget, propagation, reader MAC and loc solve; isolation measured once, so rebuild fixes must not move it",
		run: missionShape{
			sorties: 1, ticks: 3000, sarPoints: 40, tags: surveyTags,
		}.run,
	},
	{
		name: "serve_open",
		why:  serveOpen.why(),
		run:  serveOpen.run,
	},
	{
		name: "federate_open",
		why:  federateOpen.why(),
		run:  federateOpen.run,
	},
}

// metricDef is one metric the benchmark prints.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, printed with -trace 0.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"missions_per_s", "1/s"},
	{"mission_p50_ms", "ms"},
	{"mission_tail_ms", "ms"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"goodput_pct", "%"},
	{"mission_allocs", "objects"},
	{"mission_alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
	{"read_rate_pct", "%"},
	{"loc_err_m", "m"},
}

// report is one run's measurements.
type report struct {
	attempted, failed int
	checks            []string // correctness failures
	e2e, layers       map[string]float64
	notes             []string // human-readable detail printed above the result
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// fail counts an operation that errored; a correctness mismatch also
// fails the run.
func (r *report) fail(err error) {
	r.failed++
	var c errCheck
	if errors.As(err, &c) {
		r.check(c.msg)
		return
	}
	r.note("operation failed: %v", err)
}

func (r *report) check(msg string) { r.checks = append(r.checks, msg) }

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// setTiming records a timing series, in the order its samples were
// due, measured in rounds of at least roundSamples consecutive samples:
// <prefix>_p50_ms is the median of the rounds' medians and
// <prefix>_tail_ms the median of the rounds' tails, with each round's
// tail percentile and sample count printed beside it. Medians over
// rounds keep one slow stretch of a shared host from moving a whole run.
func (r *report) setTiming(prefix string, xs []float64) {
	rounds := roundsFor(len(xs))
	var p50s, tails []float64
	var detail []string
	for k := 0; k < rounds; k++ {
		round := xs[k*len(xs)/rounds : (k+1)*len(xs)/rounds]
		t, ok := tailOf(round)
		if !ok {
			r.check(fmt.Sprintf("%s: %d samples, the tail needs more than %d", prefix, len(round), tailBeyond))
			return
		}
		p50s = append(p50s, median(round))
		tails = append(tails, t.Value)
		detail = append(detail, fmt.Sprintf("p%.2f of %d", t.Pct, t.N))
	}
	r.e2e[prefix+"_p50_ms"] = median(p50s)
	r.e2e[prefix+"_tail_ms"] = median(tails)
	r.note("%s_tail_ms: median over %d round(s) of each round's tail with %d samples beyond it: %s",
		prefix, rounds, tailBeyond, strings.Join(detail, ", "))
}

// allocs fills the allocation and live-heap metrics from MemStats taken
// around the timed phase.
func (r *report) allocs(m0, m1 goruntime.MemStats, missions float64) {
	if missions > 0 {
		r.e2e["mission_allocs"] = float64(m1.Mallocs-m0.Mallocs) / missions
		r.e2e["mission_alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / missions / (1 << 20)
	}
	// Two cycles: the first only moves sync.Pool contents to the victim
	// cache, which the second frees.
	goruntime.GC()
	goruntime.GC()
	var m goruntime.MemStats
	goruntime.ReadMemStats(&m)
	r.e2e["live_heap_mb"] = float64(m.HeapAlloc) / (1 << 20)
}

// gcLayers fills the Go runtime's per-mission GC readings.
func (r *report) gcLayers(m0, m1 goruntime.MemStats, missions float64) {
	if missions > 0 {
		r.layers["go.gc_cycles"] = float64(m1.NumGC-m0.NumGC) / missions
		r.layers["go.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6 / missions
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints the human-readable report and then the result line.
func emit(w io.Writer, wl workload, seed uint64, traced bool, r *report) result {
	res := result{
		Correct:   len(r.checks) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	fmt.Fprintf(w, "# workload %s seed %d trace %t\n", wl.name, seed, traced)
	fmt.Fprintf(w, "# why: %s\n", wl.why)
	fmt.Fprintf(w, "# nproc %d GOMAXPROCS %d %s commit %s\n",
		goruntime.NumCPU(), goruntime.GOMAXPROCS(0), goruntime.Version(), commit())
	fmt.Fprintf(w, "# attempted %d failed %d error_pct %.3f\n",
		r.attempted, r.failed, pct(float64(r.failed), float64(r.attempted)))
	if traced {
		for _, m := range perLayer {
			v, ok := r.layers[m.name]
			res.Metrics[m.name] = metricValue{v, m.unit}
			shown := fmt.Sprintf("%14.4f", v)
			if !ok {
				shown = fmt.Sprintf("%14s", "n/a")
			}
			fmt.Fprintf(w, "%-30s %s %-7s moves %s\n", m.name, shown, m.unit, m.moves)
		}
		ledger(w, wl.name, r.layers)
	} else {
		for _, m := range endToEnd {
			v := r.e2e[m.name]
			res.Metrics[m.name] = metricValue{v, m.unit}
			fmt.Fprintf(w, "%-18s %14.4f %s\n", m.name, v, m.unit)
		}
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s\n", n)
	}
	for _, c := range r.checks {
		fmt.Fprintf(w, "# CHECK FAILED: %s\n", c)
	}
	return res
}

func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	name := flag.String("workload", "", "workload to run, or all")
	seed := flag.Uint64("seed", 1, "workload seed: mission seeds, tag positions and the request mix derive from it")
	seconds := flag.Float64("seconds", 25, "how long to measure")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics from an instrumented run")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace takes 0 or 1")
		os.Exit(2)
	}
	var chosen []workload
	for _, wl := range workloads {
		if *name == wl.name || *name == "all" {
			chosen = append(chosen, wl)
		}
	}
	if len(chosen) == 0 {
		var names []string
		for _, wl := range workloads {
			names = append(names, wl.name)
		}
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want all or one of %s)\n", *name, strings.Join(names, ", "))
		os.Exit(2)
	}
	ctx := context.Background()
	// A single workload's result is the last line as is; with -workload
	// all the last line combines them, metric names prefixed by workload.
	all := result{Correct: true, Metrics: map[string]metricValue{}}
	var last result
	for _, wl := range chosen {
		r, err := wl.run(ctx, *seed, *seconds, *trace == 1)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", wl.name, err)
			os.Exit(1)
		}
		last = emit(os.Stdout, wl, *seed, *trace == 1, r)
		all.Correct = all.Correct && last.Correct
		all.Attempted += last.Attempted
		all.Failed += last.Failed
		for k, v := range last.Metrics {
			all.Metrics[wl.name+"."+k] = v
		}
	}
	if len(chosen) > 1 {
		last = all
	}
	b, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
