package main

import (
	"encoding/json"
	"io"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkFile is the part of ../BENCHMARK.json the program must agree
// with.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

var (
	nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRe = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestBenchmarkFileMatchesProgram(t *testing.T) {
	f := readBenchmarkFile(t)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRe.MatchString(n) {
			t.Errorf("name %q is not [A-Za-z0-9_.-], at most 64 long, starting with a letter or digit", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		name(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: file {%s: %s}, program {%s: %s}", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	if len(f.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(f.EndToEnd), len(endToEnd))
	}
	for i, m := range f.EndToEnd {
		name(m.Name)
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit || !unitRe.MatchString(m.Unit) {
			t.Errorf("end-to-end %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(f.PerLayer), len(perLayer))
	}
	for i, m := range f.PerLayer {
		name(m.Name)
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit || !unitRe.MatchString(m.Unit) {
			t.Errorf("per-layer %d: file %s/%s, program %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
	}
}

// The result line carries exactly the declared metrics: every end-to-end
// metric untraced, every per-layer metric traced, whatever the workload
// measured.
func TestResultCarriesExactlyDeclaredNames(t *testing.T) {
	f := readBenchmarkFile(t)
	rep := newReport()
	rep.attempted = 1
	rep.e2e["setup_s"] = 1
	rep.e2e["not_declared"] = 1
	rep.layers["sim.read.count"] = 1
	rep.layers["not.declared"] = 1
	for _, traced := range []bool{false, true} {
		res := emit(io.Discard, workloads[0], 1, traced, rep)
		var got, want []string
		for k := range res.Metrics {
			got = append(got, k)
		}
		if traced {
			for _, m := range f.PerLayer {
				want = append(want, m.Name)
			}
		} else {
			for _, m := range f.EndToEnd {
				want = append(want, m.Name)
			}
		}
		sort.Strings(got)
		sort.Strings(want)
		if len(got) != len(want) {
			t.Fatalf("traced=%v: printed %d metrics, declared %d", traced, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("traced=%v: printed %q where %q is declared", traced, got[i], want[i])
			}
		}
	}
}
