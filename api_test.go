package twl

import (
	"bufio"
	"bytes"
	"errors"
	"strings"
	"testing"
)

// TestSchemeNamesRoundTrip pins the registry contract: every name listed by
// SchemeNames constructs via NewScheme, and the scheme reports that exact
// name back. This is the consistency the old hardcoded switch could not
// guarantee (SR2 was constructible but unlisted).
func TestSchemeNamesRoundTrip(t *testing.T) {
	names := SchemeNames()
	if len(names) == 0 {
		t.Fatal("no registered schemes")
	}
	sys := SmallSystem(11)
	seen := map[string]bool{}
	for _, name := range names {
		if seen[name] {
			t.Fatalf("SchemeNames lists %q twice", name)
		}
		seen[name] = true
		dev, err := sys.NewDevice()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScheme(name, dev, 3)
		if err != nil {
			t.Fatalf("NewScheme(%q): %v", name, err)
		}
		if s.Name() != name {
			t.Errorf("NewScheme(%q).Name() = %q; registry and scheme disagree", name, s.Name())
		}
	}
	for _, required := range []string{"TWL_swp", "SR2", "OD3P", "RBSG", "NOWL"} {
		if !seen[required] {
			t.Errorf("SchemeNames() omits %s", required)
		}
	}
}

func TestSchemeDocsCoverAllSchemes(t *testing.T) {
	docs := SchemeDocs()
	if len(docs) != len(SchemeNames()) {
		t.Fatalf("SchemeDocs() has %d entries, SchemeNames() %d", len(docs), len(SchemeNames()))
	}
	for i, name := range SchemeNames() {
		if !strings.HasPrefix(docs[i], name) {
			t.Errorf("doc %d = %q does not start with scheme name %q", i, docs[i], name)
		}
	}
}

func TestNewSchemeUnknownError(t *testing.T) {
	dev, err := SmallSystem(1).NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewScheme("no-such-scheme", dev, 1)
	if !errors.Is(err, ErrUnknownScheme) {
		t.Fatalf("err = %v, want ErrUnknownScheme", err)
	}
	if !strings.Contains(err.Error(), "TWL_swp") {
		t.Fatalf("error should list known schemes: %v", err)
	}
}

func TestSystemConfigValidate(t *testing.T) {
	good := DefaultSystem(1)
	if err := good.Validate(); err != nil {
		t.Fatalf("DefaultSystem invalid: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*SystemConfig)
	}{
		{"zero pages", func(c *SystemConfig) { c.Pages = 0 }},
		{"negative page size", func(c *SystemConfig) { c.PageSize = -1 }},
		{"zero endurance", func(c *SystemConfig) { c.MeanEndurance = 0 }},
		{"sigma one", func(c *SystemConfig) { c.SigmaFraction = 1 }},
	}
	for _, tc := range cases {
		c := DefaultSystem(1)
		tc.mutate(&c)
		err := c.Validate()
		if !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: Validate() = %v, want ErrBadConfig", tc.name, err)
		}
		if _, err := c.NewDevice(); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: NewDevice() = %v, want ErrBadConfig", tc.name, err)
		}
	}
}

// TestNewSchemeBadConfigPropagates checks that a scheme constructor
// rejecting its derived configuration surfaces as ErrBadConfig through the
// facade. Security Refresh requires a power-of-two page count.
func TestNewSchemeBadConfigPropagates(t *testing.T) {
	sys := SmallSystem(1)
	sys.Pages = 300 // not a power of two
	dev, err := sys.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewScheme("SR", dev, 1)
	if !errors.Is(err, ErrBadConfig) {
		t.Fatalf("SR over 300 pages: err = %v, want ErrBadConfig", err)
	}
}

// TestRunLifetimeWithObservability is the ISSUE's acceptance scenario: TWL
// under an attack workload on the small system must produce a nonzero
// blocked-request counter and a latency histogram covering every request.
func TestRunLifetimeWithObservability(t *testing.T) {
	sys := SmallSystem(7)
	dev, err := sys.NewDevice()
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheme("TWL_swp", dev, 7)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewAttack(AttackInconsistent, sys.Pages, 7)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewMetrics()
	var traceBuf bytes.Buffer
	tr := NewRunTracer(&traceBuf, 10_000)
	res, err := RunLifetimeWith(s, src, LifetimeConfig{Metrics: reg, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Err() != nil {
		t.Fatalf("tracer error: %v", tr.Err())
	}

	blocked := reg.Counter("twl_sim_blocked_requests_total").Value()
	if blocked == 0 {
		t.Fatal("blocked-request counter is zero; TWL under attack must block some requests")
	}
	writes := reg.Counter("twl_sim_requests_total", MetricLabel("op", "write")).Value()
	if writes != res.DemandWrites {
		t.Fatalf("write counter %d != demand writes %d", writes, res.DemandWrites)
	}
	hist := reg.Histogram("twl_sim_request_cycles", nil).Snapshot()
	if hist.Count != writes {
		t.Fatalf("latency histogram count %d != requests %d", hist.Count, writes)
	}
	if hist.Sum <= 0 {
		t.Fatal("latency histogram sum is zero")
	}

	// The trace must hold a start event, periodic progress and an end event.
	var events []string
	sc := bufio.NewScanner(&traceBuf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, `{"seq":`) {
			t.Fatalf("trace line is not a seq-ordered JSON object: %s", line)
		}
		switch {
		case strings.Contains(line, `"event":"start"`):
			events = append(events, "start")
		case strings.Contains(line, `"event":"progress"`):
			events = append(events, "progress")
		case strings.Contains(line, `"event":"end"`):
			events = append(events, "end")
		}
	}
	if len(events) < 3 || events[0] != "start" || events[len(events)-1] != "end" {
		t.Fatalf("trace events %v: want start, progress..., end", events)
	}
	progress := 0
	for _, e := range events {
		if e == "progress" {
			progress++
		}
	}
	if progress == 0 {
		t.Fatalf("no progress events in %v", events)
	}

	// The same registry must render in all three export formats.
	for _, render := range []func(*bytes.Buffer) error{
		func(b *bytes.Buffer) error { return reg.WriteText(b) },
		func(b *bytes.Buffer) error { return reg.WriteJSON(b) },
		func(b *bytes.Buffer) error { return reg.WritePrometheus(b) },
	} {
		var b bytes.Buffer
		if err := render(&b); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(b.String(), "twl_sim_blocked_requests_total") {
			t.Fatalf("export missing blocked counter:\n%s", b.String())
		}
	}
}

// TestStackBytesPerPage pins the simulated controller's memory layout:
// every scheme's device state is 16 B/page (uint32 wear and endurance, a
// uint64 payload tag), and the TWL engines add 22 B/page of tables, 38
// B/page for the whole TWL stack.
func TestStackBytesPerPage(t *testing.T) {
	sys := SmallSystem(11)
	for _, name := range SchemeNames() {
		dev, err := sys.NewDevice()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScheme(name, dev, 11)
		if err != nil {
			t.Fatal(err)
		}
		if got := dev.Footprint().PerPage(sys.Pages); got != 16 {
			t.Errorf("%s: device %v B/page, want 16", name, got)
		}
		if !strings.HasPrefix(name, "TWL_") {
			continue
		}
		tables, ok := TableBytesOf(s)
		if !ok {
			t.Fatalf("%s does not report its table bytes", name)
		}
		if perPage := float64(tables) / float64(sys.Pages); perPage != 22 {
			t.Errorf("%s: tables %v B/page, want 22", name, perPage)
		}
		if total := tables + dev.Footprint().Total(); total != 38*int64(sys.Pages) {
			t.Errorf("%s: stack %d bytes, want 38 B/page x %d pages", name, total, sys.Pages)
		}
	}
}
