package main

import (
	"bytes"
	"encoding/json"
	"math/big"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkSpec is the part of ../BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// lastLine parses the result line a run prints last.
func lastLine(t *testing.T, r *result) map[string]json.RawMessage {
	t.Helper()
	var buf bytes.Buffer
	if err := r.print(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatal(err)
	}
	return line
}

// checkMetrics asserts that the printed metrics are exactly the named
// ones, each with its unit.
func checkMetrics(t *testing.T, printed json.RawMessage, names map[string]string) {
	t.Helper()
	var got map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	}
	if err := json.Unmarshal(printed, &got); err != nil {
		t.Fatal(err)
	}
	for name, unit := range names {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", name)
		case m.Value == nil:
			t.Errorf("metric %s has no value", name)
		case m.Unit != unit:
			t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := names[name]; !ok {
			t.Errorf("metric %s emitted but not named in BENCHMARK.json", name)
		}
	}
}

// TestSmoke runs one untraced and one traced pass of every workload and
// checks that every metric BENCHMARK.json names is emitted with its unit
// and that every verdict is right.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	spec := readSpec(t)
	var named []string
	for _, w := range spec.Workloads {
		named = append(named, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	sort.Strings(named)
	sort.Strings(ours)
	if strings.Join(named, ",") != strings.Join(ours, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, benchmark has %v", named, ours)
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, name := range ours {
		t.Run(name, func(t *testing.T) {
			res, err := run(config{workload: name, seed: 1, trace: true, passes: 1, outDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d: %v",
					res.correct, res.attempted, res.failed, res.details["failures"])
			}
			traced := lastLine(t, res)
			if len(traced) != 4 {
				t.Errorf("result line has keys %v, want correct, attempted, failed, metrics", traced)
			}
			checkMetrics(t, traced["metrics"], layer)
			res.layer = nil // what an untraced run prints
			checkMetrics(t, lastLine(t, res)["metrics"], e2e)
		})
	}
}

// TestCheckerCatchesWrongVerdict perturbs one expected value and checks
// that the run reports the job as failed.
func TestCheckerCatchesWrongVerdict(t *testing.T) {
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	exp := expected["diamond-sds-merge"]
	exp.DScenarios = "16777217" // 2^24 + 1
	expected["diamond-sds-merge"] = exp
	res, err := run(config{workload: "symmetric", seed: 1, trace: true, passes: 1,
		outDir: t.TempDir(), expected: expected})
	if err != nil {
		t.Fatal(err)
	}
	// Two passes of two jobs; the diamond fails in both.
	if res.correct || res.failed != 2 || res.layer["fail_frac"] != 0.5 {
		t.Fatalf("correct=%v failed=%d fail_frac=%v, want false, 2, 0.5",
			res.correct, res.failed, res.layer["fail_frac"])
	}
}

func TestCheckPassAgreement(t *testing.T) {
	jobs := []*job{{name: "a-inproc", agree: "a"}, {name: "a-fleet", agree: "a"}}
	expected := map[string]expectation{
		"a-inproc": {DScenarios: "4", Violations: []string{}},
		"a-fleet":  {DScenarios: "4", Violations: []string{}},
	}
	out := func(dscenarios int64, digest string, violations ...string) *outcome {
		return &outcome{dscenarios: big.NewInt(dscenarios), digest: digest, violations: violations}
	}
	cases := []struct {
		name      string
		outs      []*outcome
		wantFleet string
	}{
		{"agree", []*outcome{out(4, "d"), out(4, "d")}, ""},
		{"digest", []*outcome{out(4, "d"), out(4, "e")}, "digest"},
		{"violations", []*outcome{out(4, "d"), out(4, "d", "node 1: boom")}, "violations"},
		{"count", []*outcome{out(4, "d"), out(5, "d")}, "dscenarios 5, want 4"},
	}
	for _, c := range cases {
		why := checkPass(expected, jobs, c.outs, make([]error, 2))
		if why[0] != "" || (c.wantFleet == "") != (why[1] == "") || !strings.Contains(why[1], c.wantFleet) {
			t.Errorf("%s: verdicts %q, want fleet job to fail with %q", c.name, why, c.wantFleet)
		}
	}
}

// TestExpectedCountsHandDerived recomputes the hand-derived counts in
// expected.json from their derivations.
func TestExpectedCountsHandDerived(t *testing.T) {
	expected, err := loadExpected()
	if err != nil {
		t.Fatal(err)
	}
	// chain(r, p, end): drop patterns when p packets reach r relays that
	// each drop their first reception, followed by a node that has end
	// outcomes once it receives anything.
	var chain func(r, p int, end int64) int64
	chain = func(r, p int, end int64) int64 {
		switch {
		case p == 0:
			return 1
		case r == 0:
			return end
		}
		return chain(r-1, p-1, end) + chain(r-1, p, end)
	}
	// 5x5 grid D4 orbits of the 12 armed flood nodes: Burnside's lemma.
	const dim = 5
	armed := map[[2]int]bool{}
	for _, d := range [][2]int{{-1, 0}, {1, 0}, {0, -1}, {0, 1}, {-1, -1}, {-1, 1}, {1, -1}, {1, 1}, {-2, 0}, {2, 0}, {0, -2}, {0, 2}} {
		armed[[2]int{2 + d[0], 2 + d[1]}] = true
	}
	syms := []func(r, c int) (int, int){
		func(r, c int) (int, int) { return r, c },
		func(r, c int) (int, int) { return c, dim - 1 - r },
		func(r, c int) (int, int) { return dim - 1 - r, dim - 1 - c },
		func(r, c int) (int, int) { return dim - 1 - c, r },
		func(r, c int) (int, int) { return r, dim - 1 - c },
		func(r, c int) (int, int) { return dim - 1 - r, c },
		func(r, c int) (int, int) { return c, r },
		func(r, c int) (int, int) { return dim - 1 - c, dim - 1 - r },
	}
	fixed := new(big.Int)
	for _, g := range syms {
		seen, cycles := map[[2]int]bool{}, uint(0)
		for p := range armed {
			if seen[p] {
				continue
			}
			cycles++
			for q := p; !seen[q]; {
				seen[q] = true
				r, c := g(q[0], q[1])
				q = [2]int{r, c}
			}
		}
		fixed.Add(fixed, new(big.Int).Lsh(big.NewInt(1), cycles))
	}
	orbits := fixed.Div(fixed, big.NewInt(int64(len(syms))))

	want := map[string]string{
		"grid7-route-cob":       big.NewInt(2 * chain(11, 3, 2)).String(),
		"grid7-cob-inproc":      big.NewInt(2 * chain(11, 3, 2)).String(),
		"deepchain6-cob-inproc": big.NewInt(chain(5, 2, 1)).String(),
		"diamond-sds-merge":     new(big.Int).Exp(big.NewInt(16), big.NewInt(6), nil).String(),
		"specchain-cob":         "4",
	}
	for name, w := range want {
		if got := expected[name].DScenarios; got != w {
			t.Errorf("%s: expected.json says %s, derivation gives %s", name, got, w)
		}
	}
	flood := expected["flood5-cob-reduce"]
	if flood.DScenariosMin != orbits.String() || flood.DScenariosMax != "4096" {
		t.Errorf("flood bounds [%s, %s], derivation gives [%s, 4096]",
			flood.DScenariosMin, flood.DScenariosMax, orbits)
	}
}
