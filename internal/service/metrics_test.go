package service

import (
	"context"
	"encoding/json"
	"regexp"
	"testing"

	"repro/internal/core"
)

// snakeKey is the one naming style /metrics speaks: lower-case words
// joined by underscores.
var snakeKey = regexp.MustCompile(`^[a-z0-9]+(_[a-z0-9]+)*$`)

// collectKeys walks a decoded JSON document and gathers every object
// key.
func collectKeys(v interface{}, out map[string]bool) {
	switch x := v.(type) {
	case map[string]interface{}:
		for k, sub := range x {
			out[k] = true
			collectKeys(sub, out)
		}
	case []interface{}:
		for _, sub := range x {
			collectKeys(sub, out)
		}
	}
}

// TestMetricsKeysAreSnakeCase pins the /metrics key space: every key,
// including the dynamic fault and event map keys that once leaked
// their human-readable spellings ("outside read bracket",
// "ring-switch"), is snake_case.
func TestMetricsKeysAreSnakeCase(t *testing.T) {
	svc := newTestService(t, Config{Workers: 1})
	// Traffic that populates faults (a read-bracket denial) and events
	// (the read check's validate event; the service records no other
	// kind, so the CALL adds none).
	qs := []Query{
		{Op: OpAccess, Ring: 7, Segment: "secret", Kind: core.AccessRead},
		{Op: OpCall, Ring: 4, Segment: "code", Wordno: 1},
	}
	if _, err := svc.Submit(context.Background(), qs); err != nil {
		t.Fatalf("Submit: %v", err)
	}
	snap := svc.Snapshot()
	if len(snap.Faults) == 0 || len(snap.Events) == 0 {
		t.Fatalf("traffic did not populate faults (%v) or events (%v)", snap.Faults, snap.Events)
	}

	buf, err := json.Marshal(snap)
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var doc interface{}
	if err := json.Unmarshal(buf, &doc); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	keys := map[string]bool{}
	collectKeys(doc, keys)
	if len(keys) == 0 {
		t.Fatal("no keys collected")
	}
	for k := range keys {
		if !snakeKey.MatchString(k) {
			t.Errorf("metrics key %q is not snake_case", k)
		}
	}
	if snap.Faults[metricKey(core.ViolationReadBracket.String())] != 1 {
		t.Errorf("normalized fault key missing: %v", snap.Faults)
	}
}

// TestMetricKey covers the normalization itself.
func TestMetricKey(t *testing.T) {
	cases := map[string]string{
		"outside read bracket": "outside_read_bracket",
		"ring-switch":          "ring_switch",
		"validate":             "validate",
	}
	for in, want := range cases {
		if got := metricKey(in); got != want {
			t.Errorf("metricKey(%q) = %q, want %q", in, got, want)
		}
	}
}
