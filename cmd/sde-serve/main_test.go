package main

import (
	"strings"
	"testing"

	"sde"
)

// TestOracleDigestMatchesInProcess: the -oracle output is the contract
// the end-to-end gauntlet compares a distributed run against, so it must
// equal the library's own sharded digest.
func TestOracleDigestMatchesInProcess(t *testing.T) {
	specJSON := `{"workload":"collect","topology":"grid:3","packets":2,"drops":"route+neighbors"}`
	got, err := oracleDigest(specJSON, 2, 8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}

	spec := sde.ScenarioSpec{
		Workload: "collect", Topology: "grid:3", Packets: 2,
		Drops: "route+neighbors",
	}
	s, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sde.RunScenarioSharded(s, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.Digest(8)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("oracle digest %s != library digest %s", got, want)
	}
}

// TestOracleDigestClampsBits: asking for more bits than the scenario can
// shard must clamp, not fail — the service does the same on submission.
func TestOracleDigestClampsBits(t *testing.T) {
	specJSON := `{"workload":"collect","topology":"grid:3","packets":1}`
	if _, err := oracleDigest(specJSON, 64, 0, 0, 0); err != nil {
		t.Errorf("oracle with oversized bits failed: %v", err)
	}
}

func TestOracleDigestRejectsBadSpec(t *testing.T) {
	for _, bad := range []string{`{not json`, `{"workload":"collect","topology":"ring:9"}`,
		`{"workload":"collect","topology":"grid:3","enable_merge":true}`} {
		if _, err := oracleDigest(bad, 2, 0, 0, 0); err == nil {
			t.Errorf("oracle accepted %q", bad)
		}
	}
	if _, err := oracleDigest(`{"workload":"collect","topology":"ring:9"}`, 2, 0, 0, 0); err == nil ||
		strings.Contains(err.Error(), "panic") {
		t.Error("bad topology must return a clean error")
	}
}
