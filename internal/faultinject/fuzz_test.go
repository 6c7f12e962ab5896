package faultinject

import (
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzParsePlan: Parse never panics, and a plan it accepts survives a
// JSON round trip: re-encoded, it parses again to the same seed and
// rules. Plans arrive as files (-faults), so any byte string is fair
// input. Seeds live in testdata/fuzz/FuzzParsePlan.
func FuzzParsePlan(f *testing.F) {
	f.Add([]byte(`{"seed":1,"rules":[{"stage":"owl.detect","run":1,"kind":"panic"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := Parse(data)
		if err != nil {
			return
		}
		enc, err := json.Marshal(p)
		if err != nil {
			t.Fatalf("accepted plan does not encode: %v", err)
		}
		q, err := Parse(enc)
		if err != nil {
			t.Fatalf("re-encoded plan is rejected: %v\n%s", err, enc)
		}
		if p.Seed != q.Seed || !reflect.DeepEqual(p.Rules, q.Rules) {
			t.Fatalf("plan changed in a round trip:\n%+v\nvs\n%+v", p.Rules, q.Rules)
		}
	})
}
