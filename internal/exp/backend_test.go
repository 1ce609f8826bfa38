package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// funcBackend adapts a function to Backend for tests.
type funcBackend func(plan *Plan, pending []UnitRef, interrupt <-chan struct{}, emit func(UnitOutcome) bool) error

func (f funcBackend) Run(plan *Plan, pending []UnitRef, interrupt <-chan struct{}, emit func(UnitOutcome) bool) error {
	return f(plan, pending, interrupt, emit)
}

// runRemote executes one unit the way a remote worker would: Run, then
// marshal — the scheduler re-decodes, giving every record the same JSON
// normalization as the local path.
func runRemote(plan *Plan, u UnitRef) UnitOutcome {
	rec, err := plan.Specs[u.Spec].Runner.Run(u.Unit, 1)
	if err != nil {
		return UnitOutcome{Ref: u, Err: err}
	}
	data, err := json.Marshal(rec)
	return UnitOutcome{Ref: u, Data: data, Err: err}
}

// TestBackendAggregatesMatchLocal pins the core Backend contract: a
// backend delivering every unit produces results identical to the local
// pool.
func TestBackendAggregatesMatchLocal(t *testing.T) {
	build := func() *Plan {
		return mustPlan(t, newFakeRunner("a", 11, 7), newFakeRunner("b", 22, 4))
	}
	ref, err := Execute(build(), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	be := funcBackend(func(plan *Plan, pending []UnitRef, _ <-chan struct{}, emit func(UnitOutcome) bool) error {
		// Deliver in reverse to prove order independence.
		for i := len(pending) - 1; i >= 0; i-- {
			emit(runRemote(plan, pending[i]))
		}
		return nil
	})
	res, err := Execute(build(), Options{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := aggregates(t, res), aggregates(t, ref); !reflect.DeepEqual(got, want) {
		t.Errorf("backend aggregates differ: got %v want %v", got, want)
	}
	if res.UnitWorkers != 0 || res.EngineWorkers != 0 {
		t.Errorf("backend run reported a local split %d/%d", res.UnitWorkers, res.EngineWorkers)
	}
}

// TestBackendDuplicateOutcomesCommitOnce pins the dedupe invariant
// behind work stealing: duplicate outcomes touch neither the records
// nor the checkpoint — one JSONL line per unit, aggregates identical to
// a duplicate-free run.
func TestBackendDuplicateOutcomesCommitOnce(t *testing.T) {
	build := func() *Plan {
		return mustPlan(t, newFakeRunner("a", 7, 5))
	}
	ref, err := Execute(build(), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "dup.jsonl")
	col, err := OpenCollector(path, false)
	if err != nil {
		t.Fatal(err)
	}
	be := funcBackend(func(plan *Plan, pending []UnitRef, _ <-chan struct{}, emit func(UnitOutcome) bool) error {
		for _, u := range pending {
			out := runRemote(plan, u)
			emit(out)
			emit(out) // stolen copy finishing second
		}
		// A late duplicate of the first unit, after everything committed.
		emit(runRemote(plan, pending[0]))
		return nil
	})
	res, err := Execute(build(), Options{Backend: be, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	col.Close()
	if got, want := aggregates(t, res), aggregates(t, ref); !reflect.DeepEqual(got, want) {
		t.Errorf("aggregates double-counted duplicates: got %v want %v", got, want)
	}
	if res.UnitsRun != 5 {
		t.Errorf("UnitsRun = %d, want 5 (duplicates must not count)", res.UnitsRun)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 5 {
		t.Errorf("checkpoint has %d lines, want 5 (one per unit, duplicates dropped)", lines)
	}
}

// TestBackendCrashThenResume simulates the distributed crash story end
// to end: a backend run dies mid-sweep (worker fleet lost), and a later
// local run resumes from the same checkpoint — completed units dedupe
// by (fingerprint, unit, seed) and nothing is double-counted.
func TestBackendCrashThenResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash.jsonl")
	build := func() *Plan {
		return mustPlan(t, newFakeRunner("a", 31, 8), newFakeRunner("b", 32, 6))
	}
	ref, err := Execute(build(), Options{Jobs: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: the fleet commits 7 of 14 units — some twice, as a dying
	// worker's steals would — then the backend fails.
	col, err := OpenCollector(path, false)
	if err != nil {
		t.Fatal(err)
	}
	crashed := errors.New("all workers down")
	be := funcBackend(func(plan *Plan, pending []UnitRef, _ <-chan struct{}, emit func(UnitOutcome) bool) error {
		for i, u := range pending[:7] {
			out := runRemote(plan, u)
			emit(out)
			if i%2 == 0 {
				emit(out)
			}
		}
		return crashed
	})
	runner := build()
	_, err = Execute(runner, Options{Backend: be, Collector: col})
	if !errors.Is(err, crashed) {
		t.Fatalf("want backend crash error, got %v", err)
	}
	col.Close()

	// Phase 2: resume locally. Exactly the 7 committed units must be
	// served from the checkpoint; the rest run fresh.
	col, err = OpenCollector(path, true)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Execute(build(), Options{Jobs: 2, Collector: col})
	if err != nil {
		t.Fatal(err)
	}
	col.Close()
	if res.UnitsResumed != 7 {
		t.Errorf("UnitsResumed = %d, want 7", res.UnitsResumed)
	}
	if res.UnitsRun != 7 {
		t.Errorf("UnitsRun = %d, want 7", res.UnitsRun)
	}
	if got, want := aggregates(t, res), aggregates(t, ref); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed aggregates differ: got %v want %v", got, want)
	}

	// The checkpoint must hold exactly one line per completed unit: 7
	// from the crashed fleet run (duplicates dropped), 7 from the resume.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(data), "\n"); lines != 14 {
		t.Errorf("checkpoint has %d lines, want 14", lines)
	}
}

// TestBackendUnitFailureStops pins failure propagation: a unit error
// emitted by the backend fails its spec and tells the backend to stop.
func TestBackendUnitFailureStops(t *testing.T) {
	toldToStop := false
	be := funcBackend(func(plan *Plan, pending []UnitRef, _ <-chan struct{}, emit func(UnitOutcome) bool) error {
		toldToStop = emit(UnitOutcome{Ref: pending[0], Err: fmt.Errorf("remote boom")})
		return nil
	})
	_, err := Execute(mustPlan(t, newFakeRunner("a", 3, 4)), Options{Backend: be})
	if err == nil || !strings.Contains(err.Error(), "remote boom") {
		t.Fatalf("want remote unit failure, got %v", err)
	}
	if !toldToStop {
		t.Error("emit did not report stop after a unit failure")
	}
}
