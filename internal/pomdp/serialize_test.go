package pomdp

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

func TestPBVIPolicyRoundTrip(t *testing.T) {
	m := tiger()
	pol, err := SolvePBVI(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicy(&buf, m.NumStates)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Belief{UniformBelief(2), {0.9, 0.1}, {0.05, 0.95}} {
		if loaded.Action(b) != pol.Action(b) {
			t.Fatalf("action differs at %v", b)
		}
		if loaded.Value(b) != pol.Value(b) {
			t.Fatalf("value differs at %v", b)
		}
	}
}

func TestQMDPPolicyRoundTrip(t *testing.T) {
	m := tiger()
	pol, err := SolveQMDP(context.Background(), m, 1e-9, 2000)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pol.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadPolicy(&buf, m.NumStates)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Belief{UniformBelief(2), {0.8, 0.2}} {
		if loaded.Action(b) != pol.Action(b) || loaded.Value(b) != pol.Value(b) {
			t.Fatalf("round trip differs at %v", b)
		}
	}
}

func TestLoadPolicyRejects(t *testing.T) {
	cases := []string{
		"not json",
		`{"version": 9, "kind": "pbvi"}`,
		`{"version": 1, "kind": "magic"}`,
		`{"version": 1, "kind": "pbvi", "alphas": [[1,2]], "actions": []}`,
		`{"version": 1, "kind": "pbvi", "alphas": [[1,2,3]], "actions": [0]}`, // wrong state count
		`{"version": 1, "kind": "qmdp", "q": [[1],[2],[3]]}`,                  // wrong state count
		`{"version": 1, "kind": "qmdp", "q": [[1,2],[3]]}`,                    // ragged
	}
	for i, c := range cases {
		if _, err := LoadPolicy(strings.NewReader(c), 2); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}
