// Command perfbench is NECTAR's benchmark: one command that runs a
// workload from a seed, prints every end-to-end metric by name with its
// unit, and checks that the program's outputs are correct. With
// -trace 1 it instead replays the workload with spans around every layer
// boundary and prints per-layer metrics. See README.md for the
// workloads, the metrics, and which layer moves which end-to-end number.
//
//	perfbench --workload paper-cost --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Human-readable lines
// (sample counts, the output digest, the trace's additivity check) come
// before it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// config holds one run's inputs.
type config struct {
	seed    int64
	seconds float64
	jobs    int // nproc: the whole machine, as nectar-bench uses it
}

// metric is one printed value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what a workload run reports.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	notes             []string
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail records a correctness failure with its reason.
func (r *result) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	r.failed += n
	r.notef("FAILED (%d): "+format, append([]any{n}, args...)...)
}

type workload struct {
	run, trace func(cfg config) (*result, error)
}

var workloads = map[string]workload{
	"paper-cost":      {run: func(c config) (*result, error) { return runSweep(paperCost, c) }, trace: func(c config) (*result, error) { return traceSweep(paperCost, c) }},
	"paper-byzantine": {run: func(c config) (*result, error) { return runSweep(paperByzantine, c) }, trace: func(c config) (*result, error) { return traceSweep(paperByzantine, c) }},
	"fleet":           {run: runFleet, trace: traceFleet},
	"large-n":         {run: runLargeN, trace: traceLargeN},
}

func main() {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-cost | paper-byzantine | large-n | fleet")
	seed := fs.Int64("seed", 1, "workload seed; every input and trial seed derives from it")
	seconds := fs.Float64("seconds", 20, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", strings.Join(names, ", "))
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, jobs: runtime.NumCPU()}
	run := w.run
	if *trace == 1 {
		run = w.trace
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	if *trace == 0 {
		res.set("peak_rss_mb", peakRSSMB(), "MB")
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0 && res.attempted > 0, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (xs is sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// setupClock collects set-up durations over a run; setup_s is their
// median. Set-up is repeated between passes rather than back to back, so
// that its median spans the same stretch of time as the other metrics
// and one slow moment of a shared machine does not decide it.
type setupClock struct{ secs []float64 }

// timeSetup runs setup once and records how long it took. It forces no
// collection: that would reset the heap the measured passes grow into.
func timeSetup[T any](c *setupClock, setup func() (T, error)) (T, error) {
	t0 := time.Now()
	v, err := setup()
	if err == nil {
		c.secs = append(c.secs, time.Since(t0).Seconds())
	}
	return v, err
}

// resample repeats setup n times, releasing each product when release
// is non-nil.
func resample[T any](c *setupClock, n int, setup func() (T, error), release func(T)) error {
	for i := 0; i < n; i++ {
		v, err := timeSetup(c, setup)
		if err != nil {
			return err
		}
		if release != nil {
			release(v)
		}
	}
	return nil
}

// report sets setup_s and notes its sample count.
func (c *setupClock) report(r *result) {
	r.set("setup_s", quantile(c.secs, 0.5), "s")
	r.notef("setup_s: median of %d set-ups spread over the run", len(c.secs))
}

// allocMB returns the bytes the Go heap has allocated so far, in MB.
func allocMB() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.TotalAlloc) / (1 << 20)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
