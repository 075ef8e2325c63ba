package sde_test

import (
	"encoding/json"
	"testing"

	"sde"
)

func TestParseAlgorithm(t *testing.T) {
	tests := []struct {
		in   string
		want sde.Algorithm
		ok   bool
	}{
		{"cob", sde.COB, true},
		{"COW", sde.COW, true},
		{"Sds", sde.SDS, true},
		{"klee", 0, false},
		{"", 0, false},
	}
	for _, tt := range tests {
		got, err := sde.ParseAlgorithm(tt.in)
		if (err == nil) != tt.ok {
			t.Errorf("ParseAlgorithm(%q) err = %v", tt.in, err)
			continue
		}
		if tt.ok && got != tt.want {
			t.Errorf("ParseAlgorithm(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestParseTopology(t *testing.T) {
	kind, size, err := sde.ParseTopology("grid:5")
	if err != nil || kind != "grid" || size != 5 {
		t.Errorf("ParseTopology(grid:5) = %q, %d, %v", kind, size, err)
	}
	for _, bad := range []string{"grid", "grid:", "grid:x", "grid:1", ":5"} {
		if _, _, err := sde.ParseTopology(bad); err == nil {
			t.Errorf("ParseTopology(%q) accepted", bad)
		}
	}
}

func TestParseFailurePlan(t *testing.T) {
	plan, err := sde.ParseFailurePlan("dup:0,reboot:3,drop:1,drop:2")
	if err != nil {
		t.Fatal(err)
	}
	if !plan.DuplicateFirst[0] || !plan.RebootOnFirst[3] || !plan.DropFirst[1] || !plan.DropFirst[2] {
		t.Errorf("plan = %+v", plan)
	}
	if plan2, err := sde.ParseFailurePlan(""); err != nil || plan2.DropFirst != nil {
		t.Errorf("empty spec: %+v, %v", plan2, err)
	}
	for _, bad := range []string{"dup", "dup:x", "explode:1"} {
		if _, err := sde.ParseFailurePlan(bad); err == nil {
			t.Errorf("ParseFailurePlan(%q) accepted", bad)
		}
	}
}

func TestScenarioSpecCombos(t *testing.T) {
	good := []sde.ScenarioSpec{
		{Workload: "collect", Topology: "grid:4", Drops: "route"},
		{Workload: "collect", Topology: "grid:4", Drops: "route+neighbors"},
		{Workload: "collect", Topology: "grid:4", Drops: "none"},
		{Workload: "collect", Topology: "line:3", Drops: "route", Failures: "dup:0"},
		{Workload: "flood", Topology: "mesh:4"},
		{Workload: "runicast", Topology: "line:3", Packets: 1},
		{Workload: "threshold", Topology: "line:3"},
		{Workload: "discovery", Topology: "grid:3"},
		{Workload: "discovery", Topology: "line:3", Drops: "none"},
		{Workload: "discovery", Topology: "mesh:3"},
		{Topology: "grid:3"}, // defaults: collect, sds, route
		{Workload: "flood", Topology: "mesh:4", Features: sde.Features{
			Interpret: true, Merge: true, Reduce: true, NoSpeculation: true}},
	}
	for _, spec := range good {
		s, err := spec.Scenario()
		if err != nil {
			t.Errorf("spec %v: %v", spec, err)
			continue
		}
		if s.Description() == "" {
			t.Errorf("spec %v: empty description", spec)
		}
	}
	bad := []sde.ScenarioSpec{
		{Workload: "collect", Topology: "mesh:4"},                     // unsupported combo
		{Workload: "flood", Topology: "grid:4"},                       // unsupported combo
		{Workload: "collect", Topology: "grid:4", Drops: "banana"},    // bad drop selection
		{Workload: "collect", Topology: "grid:4", Failures: "dup:0"},  // grid rejects failures
		{Workload: "collect", Topology: "grid:4", Failures: "drop:0"}, // even drop failures
		{Workload: "discovery", Topology: "ring:4"},                   // unknown topology kind
		{Workload: "collect", Topology: "grid"},                       // malformed topology
		{Workload: "collect", Topology: "grid:3", Algorithm: "klee"},  // unknown algorithm
	}
	for _, spec := range bad {
		if _, err := spec.Scenario(); err == nil {
			t.Errorf("spec %v accepted", spec)
		}
	}
}

// TestScenarioSpecDeterministic is the property the exploration service
// leans on: the coordinator and a worker materialising the same spec in
// different processes must explore identical spaces. Two independent
// materialisations must therefore produce bit-identical reports.
func TestScenarioSpecDeterministic(t *testing.T) {
	spec := sde.ScenarioSpec{
		Workload: "collect", Topology: "grid:3", Packets: 2,
		Drops: "route+neighbors",
	}
	digests := make([]string, 2)
	for i := range digests {
		s, err := spec.Scenario()
		if err != nil {
			t.Fatal(err)
		}
		rep, err := sde.RunScenarioSharded(s, 1)
		if err != nil {
			t.Fatal(err)
		}
		digests[i], err = rep.Digest(8)
		if err != nil {
			t.Fatal(err)
		}
	}
	if digests[0] != digests[1] {
		t.Errorf("independent materialisations diverge: %s vs %s", digests[0], digests[1])
	}
}

func TestScenarioSpecJSONRoundTrip(t *testing.T) {
	spec := sde.ScenarioSpec{
		Workload: "collect", Topology: "grid:3", Algorithm: "cow",
		Packets: 2, Drops: "none", MaxStates: 100,
		Features: sde.Features{Merge: true, NoSpeculation: true},
	}
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var back sde.ScenarioSpec
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != spec {
		t.Errorf("round trip: %+v != %+v", back, spec)
	}
	// Omitted optional fields unmarshal to working defaults.
	var min sde.ScenarioSpec
	if err := json.Unmarshal([]byte(`{"workload":"collect","topology":"grid:3"}`), &min); err != nil {
		t.Fatal(err)
	}
	if _, err := min.Scenario(); err != nil {
		t.Errorf("minimal spec does not materialise: %v", err)
	}
	// The features sit at the top level of the object, so the "reduce"
	// key that predates Features keeps working.
	var feat sde.ScenarioSpec
	body := `{"workload":"flood","topology":"mesh:4","interpret":true,"merge":true,"reduce":true,"no_speculation":true}`
	if err := json.Unmarshal([]byte(body), &feat); err != nil {
		t.Fatal(err)
	}
	if want := (sde.Features{Interpret: true, Merge: true, Reduce: true, NoSpeculation: true}); feat.Features != want {
		t.Errorf("features = %+v, want %+v", feat.Features, want)
	}
}

// TestScenarioSpecString: the log form names every non-default feature,
// so a job's log line shows how it will run.
func TestScenarioSpecString(t *testing.T) {
	base := sde.ScenarioSpec{Workload: "collect", Topology: "grid:3", Algorithm: "cob", Packets: 2, Drops: "route"}
	all := base
	all.Features = sde.Features{Interpret: true, Merge: true, Reduce: true, NoSpeculation: true}
	reduce := base
	reduce.Reduce = true
	for _, tt := range []struct {
		spec sde.ScenarioSpec
		want string
	}{
		{base, "collect/grid:3 algo=cob packets=2 drops=route"},
		{reduce, "collect/grid:3 algo=cob packets=2 drops=route reduce"},
		{all, "collect/grid:3 algo=cob packets=2 drops=route interpret merge reduce no_speculation"},
	} {
		if got := tt.spec.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}
