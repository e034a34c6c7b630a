package telemetry

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("demo_total", "A demo counter.")
	c.Inc()
	c.Add(2)
	g := r.Gauge("demo_gauge", "A demo gauge.", Label{"unit", "0"})
	g.Set(1.5)
	g.Add(-0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	want := "# HELP demo_gauge A demo gauge.\n" +
		"# TYPE demo_gauge gauge\n" +
		"demo_gauge{unit=\"0\"} 1\n" +
		"# HELP demo_total A demo counter.\n" +
		"# TYPE demo_total counter\n" +
		"demo_total 3\n"
	if out != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", out, want)
	}
}

func TestRegistryLookupReturnsSameHandle(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "x")
	b := r.Counter("x_total", "x")
	if a != b {
		t.Error("same name+labels gave distinct counters")
	}
	g1 := r.Gauge("y", "y", Label{"unit", "1"})
	g2 := r.Gauge("y", "y", Label{"unit", "2"})
	if g1 == g2 {
		t.Error("distinct labels gave the same gauge")
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10}, Label{"stage", "kalman"})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	if got := h.Sum(); got != 56.05 {
		t.Errorf("sum = %v", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{stage="kalman",le="0.1"} 1`,
		`lat_seconds_bucket{stage="kalman",le="1"} 3`,
		`lat_seconds_bucket{stage="kalman",le="10"} 4`,
		`lat_seconds_bucket{stage="kalman",le="+Inf"} 5`,
		`lat_seconds_sum{stage="kalman"} 56.05`,
		`lat_seconds_count{stage="kalman"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "b", []float64{1, 2})
	h.Observe(1) // le="1" is inclusive, Prometheus semantics
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `b_seconds_bucket{le="1"} 1`) {
		t.Errorf("boundary observation not in inclusive bucket:\n%s", b.String())
	}
}

// TestLabelEscaping: a label value escapes backslash, quote and newline, a
// HELP text backslash and newline only.
func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("esc", "a\\b\nc \"q\"", Label{"p", "a\"b\\c\nd"}).Set(1)
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP esc a\\b\nc "q"` + "\n# TYPE esc gauge\n" + `esc{p="a\"b\\c\nd"} 1` + "\n"
	if b.String() != want {
		t.Errorf("got  %q\nwant %q", b.String(), want)
	}
}

func TestConcurrentUpdates(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c")
	h := r.Histogram("h_seconds", "h", nil)
	g := r.Gauge("g", "g")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(1e-4)
				g.Add(1)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d", h.Count())
	}
	if g.Value() != 8000 {
		t.Errorf("gauge = %v", g.Value())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.Counter("ok_total", "ok").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("code = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "ok_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

// TestScrapeWhileObservingAndRegistering races continuous scrapes against
// hot-path observations and — the path the snapshot restructure protects —
// first registrations of new series arriving mid-scrape. Run under -race
// (make ci does), any snapshot/registration interleaving bug fails it;
// every scrape must be well formed (whole lines, one HELP/TYPE pair per
// family) and the final exposition must carry every family touched.
func TestScrapeWhileObservingAndRegistering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("race_total", "races")
	stop := make(chan struct{})
	ready := make(chan struct{}, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // hot path: observe relentlessly
		defer wg.Done()
		h := r.Histogram("race_seconds", "races", nil)
		for i := 0; ; i++ {
			c.Inc()
			h.Observe(1e-4)
			if i == 0 {
				ready <- struct{}{}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	go func() { // first registrations keep landing while scrapes render
		defer wg.Done()
		for i := 0; ; i++ {
			r.Gauge("race_gauge", "races", Label{"unit", strconv.Itoa(i % 512)}).Set(float64(i))
			if i == 0 {
				ready <- struct{}{}
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	<-ready
	<-ready
	for i := 0; i < 100; i++ {
		var b strings.Builder
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		checkWellFormed(t, b.String())
	}
	close(stop)
	wg.Wait()

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"race_total ", "race_seconds_count ", `race_gauge{unit="0"}`} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("final exposition missing %q", want)
		}
	}
}

// checkWellFormed asserts what any consumer of one scrape relies on: the
// text ends at a line end, every line is a whole comment or a whole sample
// (name, optional {labels}, one parseable value), and each family's HELP
// and TYPE lines appear exactly once, HELP first.
func checkWellFormed(t *testing.T, text string) {
	t.Helper()
	if text != "" && !strings.HasSuffix(text, "\n") {
		t.Errorf("exposition ends mid-line: %q", text[max(0, len(text)-40):])
	}
	help, typ := map[string]int{}, map[string]int{}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		f := strings.Fields(line)
		switch {
		case strings.HasPrefix(line, "# HELP ") && len(f) >= 3:
			help[f[2]]++
		case strings.HasPrefix(line, "# TYPE ") && len(f) == 4:
			typ[f[2]]++
			if help[f[2]] != 1 {
				t.Errorf("TYPE %s not preceded by exactly one HELP", f[2])
			}
		default:
			sp := strings.LastIndexByte(line, ' ')
			if sp <= 0 || line[0] == '#' {
				t.Errorf("torn line %q", line)
				continue
			}
			if _, err := strconv.ParseFloat(line[sp+1:], 64); err != nil {
				t.Errorf("torn value in %q", line)
			}
			if open := strings.IndexByte(line[:sp], '{'); open >= 0 && line[sp-1] != '}' {
				t.Errorf("torn labels in %q", line)
			}
		}
	}
	for name, n := range help {
		if n != 1 || typ[name] != 1 {
			t.Errorf("family %s: %d HELP, %d TYPE lines in one scrape", name, n, typ[name])
		}
	}
}

// referenceExposition is the fmt-based renderer WritePrometheus replaced,
// kept as the oracle of the byte-identity claim. Its one departure from
// the deleted code is the HELP escape, which the old renderer lacked.
func referenceExposition(r *Registry) string {
	var b strings.Builder
	for _, f := range r.Families() {
		if len(f.Labels) == 0 {
			continue
		}
		help := strings.ReplaceAll(strings.ReplaceAll(f.Help, `\`, `\\`), "\n", `\n`)
		fmt.Fprintf(&b, "# HELP %s %s\n", f.Name, help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.Name, f.Kind)
		if f.Column != nil {
			vals := make([]float64, f.Column.Len())
			f.Column.Read(vals)
			for i, v := range vals {
				sig := referenceSignature([]Label{{"unit", strconv.Itoa(i)}})
				fmt.Fprintf(&b, "%s%s %s\n", f.Name, sig, referenceFloat(v))
			}
			continue
		}
		for i, sig := range f.Labels {
			switch m := f.Series[i].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.Name, sig, m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %s\n", f.Name, sig, referenceFloat(m.Value()))
			case *Histogram:
				referenceHistogram(&b, f.Name, sig, m)
			}
		}
	}
	return b.String()
}

func referenceHistogram(b *strings.Builder, name, sig string, h *Histogram) {
	inner := ""
	if sig != "" {
		inner = sig[1:len(sig)-1] + ","
	}
	var cum uint64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket{%sle=\"%s\"} %d\n", name, inner, referenceFloat(ub), cum)
	}
	fmt.Fprintf(b, "%s_bucket{%sle=\"+Inf\"} %d\n", name, inner, h.Count())
	fmt.Fprintf(b, "%s_sum%s %s\n", name, sig, referenceFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, sig, h.Count())
}

func referenceFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// referenceSignature is labelSignature as it was, a fresh Replacer per
// escaped value.
func referenceSignature(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var parts []string
	for _, l := range labels {
		v := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(l.Value)
		parts = append(parts, l.Key+`="`+v+`"`)
	}
	return "{" + strings.Join(parts, ",") + "}"
}

var (
	edgeFloats = []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1, -1, 110, 1e21, 1e20, 123456789012345680000,
		5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64, 1e-7, 0.1, 0.30000000000000004, 99.9, 6553.5,
	}
	edgeCounts = []uint64{0, 1, 9, 10, math.MaxUint64, math.MaxUint64 - 1, 1 << 32, 1 << 53}
	edgeLabels = []string{"", "0", "16383", "kalman", `a\b`, `say "hi"`, "two\nlines", `\"` + "\n" + `\\n`, "naïve ✓", "{le=\"1\"}", " sp ace "}
	edgeHelps  = []string{"Plain help.", "", `back\slash`, "new\nline", `both \n and` + "\n" + `\\`, "# HELP inside", "trailing space "}
)

// randomRegistry fills a registry from rng: a few families of every kind,
// unlabelled, single- and multi-label series with hostile label values,
// families registered with no series, histograms with default and custom
// bounds, gauge columns (empty ones too), and values drawn half from the
// edge tables above.
func randomRegistry(t *testing.T, rng *rand.Rand) *Registry {
	pick := func(n int) int { return rng.Intn(n) }
	float := func() float64 {
		switch pick(6) {
		case 0, 1:
			return edgeFloats[pick(len(edgeFloats))]
		case 2:
			return float64(pick(20000)) / 10 // the deciwatt grid
		case 3:
			return float64(rng.Int63n(1 << 40)) // an integer
		case 4:
			return math.Float64frombits(rng.Uint64()) // any bit pattern
		}
		return 55 + 110*rng.Float64() // 17 significant digits
	}
	labels := func() []Label {
		ls := make([]Label, pick(4))
		for k := range ls {
			ls[k] = Label{Key: "k" + strconv.Itoa(k), Value: edgeLabels[pick(len(edgeLabels))]}
		}
		if len(ls) > 0 && pick(2) == 0 {
			ls[0].Value = strconv.Itoa(pick(1 << 14))
		}
		if got, want := labelSignature(ls), referenceSignature(ls); got != want {
			t.Fatalf("labelSignature(%q) = %q, reference %q", ls, got, want)
		}
		return ls
	}
	r := NewRegistry()
	for f, families := 0, 1+pick(6); f < families; f++ {
		help := edgeHelps[pick(len(edgeHelps))]
		nSeries := pick(5)
		switch pick(4) {
		case 0:
			name := fmt.Sprintf("m%d_total", f)
			r.family(name, help, kindCounter, nil) // registered, perhaps never populated
			for i := 0; i < nSeries; i++ {
				c := r.Counter(name, help, labels()...)
				if c.Value() == 0 { // not a handle this family already drew
					if pick(2) == 0 {
						c.Add(edgeCounts[pick(len(edgeCounts))])
					} else {
						c.Add(rng.Uint64())
					}
				}
			}
		case 1:
			name := fmt.Sprintf("m%d_watts", f)
			r.family(name, help, kindGauge, nil)
			for i := 0; i < nSeries; i++ {
				r.Gauge(name, help, labels()...).Set(float())
			}
		case 2:
			name := fmt.Sprintf("m%d_seconds", f)
			var bounds []float64 // nil: DefSecondsBuckets
			if pick(2) == 0 {
				ub := -5.0
				for k, n := 0, 1+pick(6); k < n; k++ {
					ub += 0.001 + 10*rng.Float64()
					bounds = append(bounds, ub)
				}
				if pick(4) == 0 {
					bounds = append(bounds, math.Inf(1))
				}
			}
			for i := 0; i < nSeries; i++ {
				h := r.Histogram(name, help, bounds, labels()...)
				for k, n := 0, pick(40); k < n; k++ {
					if v := float(); !math.IsNaN(v) { // one NaN and _sum says nothing on either side
						h.Observe(v)
					}
				}
			}
		case 3:
			vals := make([]float64, 3*nSeries)
			for i := range vals {
				vals[i] = float()
			}
			r.GaugeColumn(fmt.Sprintf("m%d_units", f), help, len(vals), func(dst []float64) { copy(dst, vals) })
		}
	}
	return r
}

// TestExpositionMatchesReference is the byte-identity proof: over generated
// registries the append renderer and the fmt renderer it replaced agree on
// every byte.
func TestExpositionMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	nonEmpty := 0
	for i := 0; i < 400; i++ {
		r := randomRegistry(t, rng)
		var b bytes.Buffer
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		if want := referenceExposition(r); b.String() != want {
			t.Fatalf("case %d differs from the reference renderer\ngot:\n%s\nwant:\n%s", i, b.String(), want)
		}
		if b.Len() == 0 {
			continue
		}
		nonEmpty++
		// What escaping is for: however hostile the label values and help
		// texts, a raw newline only ever ends a record, so every line
		// starts a comment or a sample of a generated family.
		for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
			if !strings.HasPrefix(line, "# HELP m") && !strings.HasPrefix(line, "# TYPE m") && !strings.HasPrefix(line, "m") {
				t.Fatalf("case %d: an unescaped newline broke a record: line %q", i, line)
			}
		}
	}
	if nonEmpty < 200 {
		t.Errorf("only %d of 400 generated registries had any series", nonEmpty)
	}
}

// pieceWriter takes each Write in pieces of at most n bytes (0: whole),
// the way a framing or throttling writer underneath would, and records
// what the renderer handed it.
type pieceWriter struct {
	n      int
	out    bytes.Buffer
	chunks []int // length of each Write
	torn   int   // Writes that did not end at a line end
}

func (p *pieceWriter) Write(b []byte) (int, error) {
	p.chunks = append(p.chunks, len(b))
	if len(b) == 0 || b[len(b)-1] != '\n' {
		p.torn++
	}
	for rest := b; len(rest) > 0; {
		k := len(rest)
		if p.n > 0 && p.n < k {
			k = p.n
		}
		p.out.Write(rest[:k])
		rest = rest[k:]
	}
	return len(b), nil
}

// TestExpositionChunks: a registry several chunks long arrives complete
// and identical whatever the writer's appetite, in chunks that never
// exceed the fixed capacity and never end mid-line — a consumer reading a
// live stream never sees a torn sample from a successful scrape.
func TestExpositionChunks(t *testing.T) {
	r := opsRegistry(2048, false) // ≈ 270 kB
	r.Gauge("long_line", "One line longer than the chunk's slack.", Label{"v", strings.Repeat("x", 3*expoSlack)}).Set(1)
	want := referenceExposition(r)
	if len(want) < 3*expoChunk {
		t.Fatalf("registry renders to %d bytes, want ≥ 3 chunks", len(want))
	}
	for _, n := range []int{1, 7, 0} {
		w := &pieceWriter{n: n}
		if err := r.WritePrometheus(w); err != nil {
			t.Fatal(err)
		}
		if w.out.String() != want {
			t.Errorf("pieces of %d: exposition differs from reference", n)
		}
		if len(w.chunks) < 3 || w.torn != 0 {
			t.Errorf("pieces of %d: %d chunks, %d ending mid-line", n, len(w.chunks), w.torn)
		}
		for _, c := range w.chunks {
			if c > expoChunk {
				t.Errorf("pieces of %d: a %d-byte chunk exceeds the %d-byte capacity", n, c, expoChunk)
			}
		}
	}
}

// failingResponse is a ResponseWriter whose failAt-th Write fails (later
// ones would succeed: a handler that kept going would show).
type failingResponse struct {
	header  http.Header
	failAt  int
	writes  int
	body    bytes.Buffer
	headers []int // every WriteHeader call
}

var errBrokenPipe = errors.New("broken pipe")

func (f *failingResponse) Header() http.Header  { return f.header }
func (f *failingResponse) WriteHeader(code int) { f.headers = append(f.headers, code) }
func (f *failingResponse) Write(b []byte) (int, error) {
	f.writes++
	if f.writes == f.failAt {
		return 0, errBrokenPipe
	}
	f.body.Write(b)
	return len(b), nil
}

// TestWriteErrorStopsTheScrape: the first failed Write is returned as is,
// nothing is written after it — not by the renderer and not by the
// handler, which must not append an error page and a second status to a
// 200 exposition already under way.
func TestWriteErrorStopsTheScrape(t *testing.T) {
	r := opsRegistry(2048, false)
	whole := referenceExposition(r)
	for _, failAt := range []int{1, 3} {
		w := &failingResponse{header: http.Header{}, failAt: failAt}
		if err := r.WritePrometheus(w); err != errBrokenPipe {
			t.Errorf("fail at %d: WritePrometheus = %v, want the writer's error", failAt, err)
		}
		if w.writes != failAt {
			t.Errorf("fail at %d: %d Write calls", failAt, w.writes)
		}
		if got := w.body.String(); !strings.HasPrefix(whole, got) || len(got) >= len(whole) {
			t.Errorf("fail at %d: delivered %d bytes that are not a proper prefix of the exposition", failAt, len(got))
		}

		h := &failingResponse{header: http.Header{}, failAt: failAt}
		r.Handler().ServeHTTP(h, httptest.NewRequest("GET", "/metrics", nil))
		if h.writes != failAt || len(h.headers) != 0 || h.body.String() != w.body.String() {
			t.Errorf("fail at %d: handler made %d Writes, WriteHeader calls %v, body %d bytes (renderer alone: %d)",
				failAt, h.writes, h.headers, h.body.Len(), w.body.Len())
		}
	}
}

// TestHistogramConsistentWhileObserving scrapes beside hammering Observes
// and holds every scrape to what the exposition format requires of one
// histogram: cumulative buckets never decrease, +Inf holds at least the
// last finite bucket, and _count equals +Inf.
func TestHistogramConsistentWhileObserving(t *testing.T) {
	r := NewRegistry()
	hs := []*Histogram{
		r.Histogram("busy_seconds", "busy", nil, Label{"stage", "a"}),
		r.Histogram("busy_seconds", "busy", nil, Label{"stage", "b"}),
		r.Histogram("plain_seconds", "plain", []float64{1, 2}),
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				// Low buckets mostly: the lower the bucket bumped, the more
				// lines a torn total would contradict.
				hs[(g+i)%len(hs)].Observe(float64(i%7) * 1e-6)
				select {
				case <-stop:
					return
				default:
				}
			}
		}(g)
	}
	scrapes := 300
	if testing.Short() {
		scrapes = 100
	}
	var b bytes.Buffer
	for i := 0; i < scrapes && !t.Failed(); i++ {
		b.Reset()
		if err := r.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		checkHistograms(t, b.String())
	}
	close(stop)
	wg.Wait()
}

// checkHistograms parses one exposition and checks each histogram series
// (keyed by name and non-le labels) for internal consistency.
func checkHistograms(t *testing.T, text string) {
	t.Helper()
	type hist struct {
		last, inf, count uint64
		seenInf          bool
	}
	hists := map[string]*hist{}
	get := func(k string) *hist {
		if hists[k] == nil {
			hists[k] = &hist{}
		}
		return hists[k]
	}
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		sp := strings.LastIndexByte(line, ' ')
		series, val := line[:sp], line[sp+1:]
		switch {
		case strings.Contains(series, "_bucket{"):
			v, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			le := strings.LastIndex(series, `le="`)
			key := strings.Replace(series[:le], "_bucket{", "{", 1) // `name{stage="a",` or `name{`
			key = strings.TrimRight(key, ",{") + "}"
			h := get(key)
			if v < h.last {
				t.Errorf("%s: bucket %s = %d below the previous bucket's %d", key, series[le:], v, h.last)
			}
			h.last = v
			if strings.HasSuffix(series, `le="+Inf"}`) {
				h.inf, h.seenInf = v, true
			}
		case strings.Contains(series, "_count"):
			v, _ := strconv.ParseUint(val, 10, 64)
			name, labels, _ := strings.Cut(series, "{")
			key := strings.TrimSuffix(name, "_count")
			if labels != "" {
				key += "{" + labels
			} else {
				key += "}"
			}
			get(key).count = v
		}
	}
	if len(hists) != 3 {
		t.Fatalf("parsed %d histogram series, want 3: %v", len(hists), hists)
	}
	for key, h := range hists {
		if !h.seenInf || h.count != h.inf {
			t.Errorf("%s: _count %d, +Inf bucket %d (seen %v)", key, h.count, h.inf, h.seenInf)
		}
	}
}

// opsRegistry builds bench's ops16k registry shape at the given unit
// count: four per-unit families (power and caps on the 0.1 W grid, as a
// controller delivers caps, and two 0/1 flags), nine daemon counters and one histogram
// family of nine labelled stages — 4·units + 207 sample lines, 65 743 at
// 16 384 units (bench: telemetry.series_count). The per-unit families are
// gauge columns, as dpsd registers them, or with gauges set one
// registered gauge per unit holding the same values.
func opsRegistry(units int, gauges bool) *Registry {
	r := NewRegistry()
	rng := rand.New(rand.NewSource(1))
	perUnit := []struct {
		name, help string
		vals       []float64
	}{
		{"dps_unit_power_watts", "Last reported power per unit.", nil},
		{"dps_unit_cap_watts", "Current power cap per unit.", nil},
		{"dps_unit_high_priority", "1 when the unit is high priority.", nil},
		{"dps_unit_stale", "1 when the unit's reading is stale.", nil},
	}
	for u := 0; u < units; u++ {
		for k, v := range []float64{float64(400+rng.Intn(1400)) / 10, float64(550+rng.Intn(1101)) / 10, float64(rng.Intn(2)), float64(rng.Intn(2))} {
			perUnit[k].vals = append(perUnit[k].vals, v)
		}
	}
	for _, f := range perUnit {
		if !gauges {
			r.GaugeColumn(f.name, f.help, units, func(dst []float64) { copy(dst, f.vals) })
			continue
		}
		for u, v := range f.vals {
			r.Gauge(f.name, f.help, Label{"unit", strconv.Itoa(u)}).Set(v)
		}
	}
	for i := 0; i < 9; i++ {
		r.Counter(fmt.Sprintf("dps_event%d_total", i), "A daemon counter.").Add(uint64(rng.Int63n(1 << 30)))
	}
	for _, stage := range []string{"kalman", "stateless", "priority", "readjust", "decide", "ingest", "push", "apply", "observe"} {
		h := r.Histogram("dps_stage_seconds", "Wall time per pipeline stage.", nil, Label{"stage", stage})
		for i := 0; i < 100; i++ {
			h.Observe(rng.Float64() * 1e-2)
		}
	}
	return r
}

// TestWritePrometheusAllocsIndependentOfSeries: a scrape allocates the
// family snapshot and one chunk, whether it walks a thousand series or
// sixty-five thousand, held as gauges or read from gauge columns into
// scratch the previous scrape left; and both shapes expose the same
// bytes.
func TestWritePrometheusAllocsIndependentOfSeries(t *testing.T) {
	for _, gauges := range []bool{true, false} {
		allocs := func(units int) float64 {
			r := opsRegistry(units, gauges)
			var b bytes.Buffer
			if err := r.WritePrometheus(&b); err != nil { // warm: grows b to the exposition's size
				t.Fatal(err)
			}
			return testing.AllocsPerRun(5, func() {
				b.Reset()
				_ = r.WritePrometheus(&b)
			})
		}
		small, large := allocs(1024/4), allocs(65536/4)
		if small != large || large > 8 {
			t.Errorf("gauges=%v: allocations per scrape: %v at 1 024 series, %v at 65 536, want equal and ≤ 8", gauges, small, large)
		}
	}
	var g, c bytes.Buffer
	if err := errors.Join(opsRegistry(300, true).WritePrometheus(&g), opsRegistry(300, false).WritePrometheus(&c)); err != nil {
		t.Fatal(err)
	}
	if g.String() != c.String() {
		t.Error("gauge columns expose other bytes than the gauges they stand for")
	}
}

// TestGaugeColumnIsItsGauges: Each visits a gauge column's series as it
// would n gauges, the registry's generation counts them, and a column
// shares its name with no other family, in either order.
func TestGaugeColumnIsItsGauges(t *testing.T) {
	samples := func(r *Registry) []Sample {
		var out []Sample
		r.Each(func(s Sample) { out = append(out, s) })
		return out
	}
	gauges, columns := opsRegistry(40, true), opsRegistry(40, false)
	if g, c := samples(gauges), samples(columns); !reflect.DeepEqual(g, c) {
		t.Errorf("Each over gauge columns:\n%v\nover gauges:\n%v", c, g)
	}
	if g, c := gauges.Generation(), columns.Generation(); g != c {
		t.Errorf("generation %d with gauge columns, %d with gauges", c, g)
	}
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	mustPanic("a gauge under a column's name", func() { columns.Gauge("dps_unit_cap_watts", "", Label{"unit", "0"}) })
	mustPanic("a column under a gauge's name", func() { gauges.GaugeColumn("dps_unit_cap_watts", "", 1, func([]float64) {}) })
	mustPanic("a column registered twice", func() { columns.GaugeColumn("dps_unit_cap_watts", "", 40, func([]float64) {}) })
}

// BenchmarkWritePrometheus is a warm /metrics scrape of the ops16k
// registry shape, per-unit families as gauge columns, into a retained
// buffer, as bench's scrape_ms times it.
func BenchmarkWritePrometheus(b *testing.B) {
	const units, series = 16384, 4*16384 + 207
	b.Run(fmt.Sprintf("series=%d", series), func(b *testing.B) {
		r := opsRegistry(units, false)
		var buf bytes.Buffer
		if err := r.WritePrometheus(&buf); err != nil {
			b.Fatal(err)
		}
		if got := bytes.Count(buf.Bytes(), []byte("\n")) - bytes.Count(buf.Bytes(), []byte("\n# ")) - 1; got != series {
			b.Fatalf("registry renders %d sample lines, want %d", got, series)
		}
		b.ReportAllocs()
		b.SetBytes(int64(buf.Len()))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := r.WritePrometheus(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/series, "ns/series")
	})
}
