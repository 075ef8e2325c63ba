package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/big"
	"strings"
)

// expectedJSON is the ground truth every verdict is checked against. It
// is written by hand, not recorded from the code under test; each entry
// says where its numbers come from.
//
//go:embed expected.json
var expectedJSON []byte

// expectation is one job's ground truth.
type expectation struct {
	Why string `json:"why"`
	// DScenarios is the exact dscenario count; DScenariosMin and
	// DScenariosMax bound it where only bounds are known.
	DScenarios    string   `json:"dscenarios,omitempty"`
	DScenariosMin string   `json:"dscenarios_min,omitempty"`
	DScenariosMax string   `json:"dscenarios_max,omitempty"`
	Violations    []string `json:"violations"`
	// TestCases is the number of test cases the job must produce.
	TestCases int `json:"test_cases,omitempty"`
	// SplitVar and SplitAt, when set, require the test cases to cover
	// both sides of SplitVar > SplitAt. SplitVar names a symbolic input;
	// the engine names its instances SplitVar_n<node>_<k>.
	SplitVar string `json:"split_var,omitempty"`
	SplitAt  uint64 `json:"split_at,omitempty"`
}

func loadExpected() (map[string]expectation, error) {
	var file struct {
		Jobs map[string]expectation `json:"jobs"`
	}
	if err := json.Unmarshal(expectedJSON, &file); err != nil {
		return nil, fmt.Errorf("expected.json: %w", err)
	}
	for name, exp := range file.Jobs {
		for _, c := range []string{exp.DScenarios, exp.DScenariosMin, exp.DScenariosMax} {
			if _, ok := new(big.Int).SetString(c, 10); c != "" && !ok {
				return nil, fmt.Errorf("expected.json: %s: bad count %q", name, c)
			}
		}
	}
	return file.Jobs, nil
}

// checkPass returns, per job, why its verdict is wrong ("" when it is
// right). errs[i] is job i's error and outs[i] its outcome (nil when it
// failed). Beyond each job's own expectation, jobs of one agree group
// must report what the group's first job reports.
func checkPass(expected map[string]expectation, jobs []*job, outs []*outcome, errs []error) []string {
	why := make([]string, len(jobs))
	for i, j := range jobs {
		switch {
		case errs[i] != nil:
			why[i] = "error: " + errs[i].Error()
		case outs[i].aborted != "":
			why[i] = "aborted: " + outs[i].aborted
		default:
			exp, ok := expected[j.name]
			if !ok {
				why[i] = "no expected verdict"
				continue
			}
			why[i] = checkOne(exp, outs[i])
		}
	}
	first := map[string]int{}
	for i, j := range jobs {
		if j.agree == "" || outs[i] == nil {
			continue
		}
		ref, ok := first[j.agree]
		if !ok {
			first[j.agree] = i
			continue
		}
		if why[i] == "" {
			why[i] = disagreement(jobs[ref].name, outs[ref], outs[i])
		}
	}
	return why
}

func checkOne(exp expectation, out *outcome) string {
	var bad []string
	if exp.DScenarios != "" && cmpCount(out.dscenarios, exp.DScenarios) != 0 {
		bad = append(bad, fmt.Sprintf("dscenarios %s, want %s", out.dscenarios, exp.DScenarios))
	}
	if exp.DScenariosMin != "" && cmpCount(out.dscenarios, exp.DScenariosMin) < 0 {
		bad = append(bad, fmt.Sprintf("dscenarios %s, want at least %s", out.dscenarios, exp.DScenariosMin))
	}
	if exp.DScenariosMax != "" && cmpCount(out.dscenarios, exp.DScenariosMax) > 0 {
		bad = append(bad, fmt.Sprintf("dscenarios %s, want at most %s", out.dscenarios, exp.DScenariosMax))
	}
	if got, want := strings.Join(out.violations, "; "), strings.Join(exp.Violations, "; "); got != want {
		bad = append(bad, fmt.Sprintf("violations [%s], want [%s]", got, want))
	}
	if exp.TestCases > 0 && len(out.testCases) != exp.TestCases {
		bad = append(bad, fmt.Sprintf("%d test cases, want %d", len(out.testCases), exp.TestCases))
	}
	if exp.SplitVar != "" {
		above, below := false, false
		for _, tc := range out.testCases {
			for name, v := range tc {
				if strings.HasPrefix(name, exp.SplitVar+"_n") {
					above = above || v > exp.SplitAt
					below = below || v <= exp.SplitAt
				}
			}
		}
		if !above || !below {
			bad = append(bad, fmt.Sprintf("test cases do not cover both sides of %s > %d", exp.SplitVar, exp.SplitAt))
		}
	}
	return strings.Join(bad, "; ")
}

func disagreement(refName string, ref, out *outcome) string {
	switch {
	case ref.dscenarios.Cmp(out.dscenarios) != 0:
		return fmt.Sprintf("dscenarios %s disagree with %s's %s", out.dscenarios, refName, ref.dscenarios)
	case strings.Join(ref.violations, "; ") != strings.Join(out.violations, "; "):
		return fmt.Sprintf("violations disagree with %s's", refName)
	case ref.digest != "" && out.digest != "" && ref.digest != out.digest:
		return fmt.Sprintf("digest %.12s disagrees with %s's %.12s at the same partition", out.digest, refName, ref.digest)
	}
	return ""
}

// cmpCount compares got with want, a count loadExpected validated.
func cmpCount(got *big.Int, want string) int {
	w, _ := new(big.Int).SetString(want, 10)
	return got.Cmp(w)
}
