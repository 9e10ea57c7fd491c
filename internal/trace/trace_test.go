package trace

import (
	"strings"
	"testing"
)

func TestBufferRecordsInOrder(t *testing.T) {
	b := &Buffer{}
	b.Record(Event{Kind: KindFetch, Ring: 4, Segno: 1, Wordno: 2, Detail: "lda 5"})
	b.Record(Event{Kind: KindRingSwitch, Ring: 1, Detail: "call: ring 4 -> 1"})
	b.Record(Event{Kind: KindFetch, Ring: 1, Detail: "hlt"})
	if len(b.Events) != 3 {
		t.Fatalf("events: %d", len(b.Events))
	}
	fetches := b.OfKind(KindFetch)
	if len(fetches) != 2 || fetches[0].Detail != "lda 5" || fetches[1].Detail != "hlt" {
		t.Errorf("fetches: %v", fetches)
	}
	if len(b.OfKind(KindTrap)) != 0 {
		t.Error("phantom trap events")
	}
}

func TestBufferLimit(t *testing.T) {
	b := &Buffer{Limit: 2}
	for i := 0; i < 5; i++ {
		b.Record(Event{Kind: KindExec})
	}
	if len(b.Events) != 2 || b.Dropped != 3 {
		t.Errorf("events=%d dropped=%d", len(b.Events), b.Dropped)
	}
	if !strings.Contains(b.String(), "3 events dropped") {
		t.Error("dropped count not rendered")
	}
}

func TestEventString(t *testing.T) {
	e := Event{Kind: KindValidate, Ring: 5, Segno: 0o12, Wordno: 0o7, Detail: "read ok"}
	s := e.String()
	for _, want := range []string{"validate", "r5", "(12|7)", "read ok"} {
		if !strings.Contains(s, want) {
			t.Errorf("event string %q missing %q", s, want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindFetch, KindEA, KindValidate, KindRingSwitch, KindTrap, KindExec, KindService}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") || seen[s] {
			t.Errorf("kind %d string %q", k, s)
		}
		seen[s] = true
	}
	if !strings.HasPrefix(Kind(42).String(), "kind(") {
		t.Error("unknown kind string")
	}
}

func TestFuncRecorder(t *testing.T) {
	var got []Event
	r := Func(func(e Event) { got = append(got, e) })
	r.Record(Event{Kind: KindTrap, Detail: "x"})
	if len(got) != 1 || got[0].Detail != "x" {
		t.Errorf("func recorder: %v", got)
	}
}
