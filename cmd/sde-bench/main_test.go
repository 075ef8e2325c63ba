package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseDims(t *testing.T) {
	got, err := parseDims("5,7,10")
	if err != nil || !reflect.DeepEqual(got, []int{5, 7, 10}) {
		t.Errorf("parseDims = %v, %v", got, err)
	}
	got, err = parseDims(" 3 , 4 ")
	if err != nil || !reflect.DeepEqual(got, []int{3, 4}) {
		t.Errorf("parseDims with spaces = %v, %v", got, err)
	}
	for _, bad := range []string{"", "x", "1", "5,,x", "0"} {
		if _, err := parseDims(bad); err == nil {
			t.Errorf("parseDims(%q) accepted", bad)
		}
	}
}

// TestValidateWorkerFlag: a negative -workers must be rejected with an
// error naming the flag, not silently mapped to a default worker count.
func TestValidateWorkerFlag(t *testing.T) {
	cases := []struct {
		name string
		n    int
		ok   bool
	}{
		{"-workers", 0, true},
		{"-workers", 8, true},
		{"-workers", -1, false},
	}
	for _, tt := range cases {
		err := validateWorkerFlag(tt.name, tt.n)
		if tt.ok && err != nil {
			t.Errorf("validateWorkerFlag(%q, %d) = %v, want nil", tt.name, tt.n, err)
		}
		if !tt.ok {
			if err == nil {
				t.Errorf("validateWorkerFlag(%q, %d) accepted a negative count", tt.name, tt.n)
			} else if !strings.Contains(err.Error(), tt.name) {
				t.Errorf("error %q does not name the flag %q", err, tt.name)
			}
		}
	}
}
