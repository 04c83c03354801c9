package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"twl/internal/cache"
	"twl/internal/obs"
)

// newJournalServer is newTestServer with a checkpoint cadence long enough
// that the long cells below do not spend their time checkpointing; a drain
// or cancel still stops them within a few milliseconds.
func newJournalServer(t *testing.T, dir string, workers int) *Server {
	t.Helper()
	srv, err := New(Config{DataDir: dir, Workers: workers, CheckpointEvery: 1 << 15})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// longTailSpec runs, on one worker, three NOWL cells of a few milliseconds
// and then three TWL_swp cells under the inconsistent attack that each take
// about 30 times as long: a window in which the job is live with settled
// cells, closed by a drain or a cancel.
func longTailSpec() JobSpec {
	return JobSpec{
		Schemes:       []string{"NOWL", "TWL_swp"},
		Attacks:       []string{"inconsistent"},
		Seeds:         []uint64{1, 2, 3},
		Pages:         512,
		MeanEndurance: 50000,
	}
}

// waitState polls until cond, evaluated under srv.mu, holds.
func waitState(t *testing.T, srv *Server, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		srv.mu.Lock()
		ok := cond()
		srv.mu.Unlock()
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: not reached before the deadline", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// statusBody is the GET /jobs/{id} response body.
func statusBody(t *testing.T, srv *Server, id string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/jobs/"+id, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /jobs/%s: HTTP %d: %s", id, rec.Code, rec.Body)
	}
	return rec.Body.Bytes()
}

func outcomeCount(srv *Server, outcome string) uint64 {
	return srv.Metrics().Counter("twl_serve_cells_total", obs.L("outcome", outcome)).Value()
}

// settledCount counts j's terminal cells. Must be called with mu held.
func settledCount(j *job) int {
	n := 0
	for _, c := range j.cells {
		if c.Status != cellPending && c.Status != cellRunning {
			n++
		}
	}
	return n
}

// drainMidJob submits longTailSpec to a one-worker server on dir and
// drains it once the first TWL_swp cell is running, leaving the three
// NOWL cells journaled and the rest pending. It returns the job id and
// the job's journal path.
func drainMidJob(t *testing.T, dir string) (string, string) {
	t.Helper()
	srv := newJournalServer(t, dir, 1)
	id, _, err := srv.Submit(longTailSpec())
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, "first TWL_swp cell running", func() bool {
		return srv.jobs[id].cells[3].Status == cellRunning
	})
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	log := journalPath(srv.jobsDir, id)
	b, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(b, []byte("\n")); n != 3 {
		t.Fatalf("drained journal has %d records, want 3:\n%s", n, b)
	}
	return id, log
}

// TestJournalSettleLeavesJobFile: settling a cell appends to the journal
// and never rewrites <id>.json — same inode, same bytes — until the last
// settlement compacts the finished job into it and removes the journal.
func TestJournalSettleLeavesJobFile(t *testing.T) {
	srv := newJournalServer(t, t.TempDir(), 1)
	defer srv.Close()
	spec := JobSpec{
		Schemes:       []string{"NOWL", "OD3P", "TWL_swp"},
		Attacks:       []string{"inconsistent"},
		Pages:         256,
		MeanEndurance: 20000,
	}
	id, cells, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(srv.jobsDir, id+".json")
	log := journalPath(srv.jobsDir, id)
	info0, err := os.Stat(base)
	if err != nil {
		t.Fatal(err)
	}
	bytes0, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}

	journaled := 0 // polls that saw the job live with settled cells
	for {
		srv.mu.Lock()
		j := srv.jobs[id]
		live := jobLive(j)
		settled := settledCount(j)
		info, serr := os.Stat(base)
		b, rerr := os.ReadFile(base)
		records, lerr := os.ReadFile(log)
		srv.mu.Unlock()
		if !live {
			break
		}
		if serr != nil || rerr != nil {
			t.Fatalf("job file unreadable mid-job: %v %v", serr, rerr)
		}
		if !os.SameFile(info0, info) || !bytes.Equal(bytes0, b) {
			t.Fatalf("job file rewritten while the job was live (%d cells settled)", settled)
		}
		if settled > 0 {
			journaled++
			if lerr != nil {
				t.Fatalf("%d cells settled but no journal: %v", settled, lerr)
			}
			if n := bytes.Count(records, []byte("\n")); n != settled {
				t.Fatalf("journal has %d records for %d settled cells", n, settled)
			}
		}
		time.Sleep(time.Millisecond)
	}
	if journaled == 0 {
		t.Fatal("never observed the job live with a settled cell")
	}

	info, err := os.Stat(base)
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(info0, info) {
		t.Error("finished job was not compacted into a new job file")
	}
	if _, err := os.Stat(log); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("journal survives the finished job (stat: %v)", err)
	}
	b, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var jf jobFile
	if err := json.Unmarshal(b, &jf); err != nil {
		t.Fatal(err)
	}
	if len(jf.Cells) != cells {
		t.Fatalf("compacted file has %d cells, want %d", len(jf.Cells), cells)
	}
	for _, c := range jf.Cells {
		if c.Status != cellDone || c.Result == nil {
			t.Errorf("compacted cell %s: status %s, result %v", c.name(), c.Status, c.Result)
		}
	}
}

// TestJournalAppendSizeIndependentOfJobSize: settling a cell appends the
// same bytes to a 10-cell job's journal as to a 1000-cell job's, and
// leaves the job file alone.
func TestJournalAppendSizeIndependentOfJobSize(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	res := cellResult{Scheme: "NOWL", DemandWrites: 12345, DeviceWrites: 12345, FailedPage: 7, Normalized: 0.0043}
	appended := func(n int) int64 {
		spec := JobSpec{Schemes: []string{"NOWL"}, Attacks: []string{"repeat"}, Pages: 256, MeanEndurance: 3000}
		for s := 1; s <= n; s++ {
			spec.Seeds = append(spec.Seeds, uint64(s))
		}
		if err := spec.normalize(); err != nil {
			t.Fatal(err)
		}
		j := &job{id: fmt.Sprintf("job-%04d-test", n), spec: spec, cells: buildCells(spec), trace: &obs.TraceBuffer{}}
		j.tracer = obs.NewTracer(j.trace, 0)
		srv.mu.Lock()
		err := persistJob(srv.jobsDir, j)
		srv.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		base := filepath.Join(srv.jobsDir, j.id+".json")
		before, err := os.ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		var sizes []int64
		for _, i := range []int{3, 4} {
			srv.finishCell(j, i, &res, false, nil)
			info, err := os.Stat(journalPath(srv.jobsDir, j.id))
			if err != nil {
				t.Fatal(err)
			}
			sizes = append(sizes, info.Size())
		}
		after, err := os.ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(before, after) {
			t.Errorf("%d-cell job: settling rewrote the job file", n)
		}
		if sizes[1] != 2*sizes[0] {
			t.Errorf("%d-cell job: appends of %d and %d bytes differ", n, sizes[0], sizes[1]-sizes[0])
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if err := closeJournal(j); err != nil {
			t.Fatal(err)
		}
		return sizes[0]
	}
	small, large := appended(10), appended(1000)
	if small != large {
		t.Errorf("one settlement appends %d bytes to a 10-cell job, %d to a 1000-cell job", small, large)
	}
}

// TestJournalAppendFailureCompacts: when the journal cannot be written a
// settlement compacts the whole state into the job file instead, and no
// record is appended to that journal again until a compaction has replaced
// it; appending resumes afterwards, and the job reloads with every
// settlement.
func TestJournalAppendFailureCompacts(t *testing.T) {
	srv := newTestServer(t, t.TempDir(), 1)
	defer srv.Close()
	spec := JobSpec{Schemes: []string{"NOWL"}, Attacks: []string{"repeat"}, Seeds: []uint64{1, 2, 3, 4, 5}, Pages: 256, MeanEndurance: 3000}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	j := &job{id: jobID(1, spec), spec: spec, cells: buildCells(spec), trace: &obs.TraceBuffer{}}
	j.tracer = obs.NewTracer(j.trace, 0)
	if err := persistJob(srv.jobsDir, j); err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(srv.jobsDir, j.id+".json")
	log := journalPath(srv.jobsDir, j.id)
	// A non-empty directory where the journal belongs: opening it for
	// writing fails, and so does removing it.
	if err := os.MkdirAll(filepath.Join(log, "blocker"), 0o755); err != nil {
		t.Fatal(err)
	}
	res := &cellResult{Scheme: "NOWL", DemandWrites: 1}
	onDisk := func() []string {
		b, err := os.ReadFile(base)
		if err != nil {
			t.Fatal(err)
		}
		var jf jobFile
		if err := json.Unmarshal(b, &jf); err != nil {
			t.Fatal(err)
		}
		var st []string
		for _, c := range jf.Cells {
			st = append(st, c.Status)
		}
		return st
	}
	want := func(got []string, done int) {
		t.Helper()
		for i, s := range got {
			w := cellPending
			if i < done {
				w = cellDone
			}
			if s != w {
				t.Fatalf("statuses %v, want the first %d done and the rest pending", got, done)
			}
		}
	}

	for i := 0; i < 2; i++ {
		srv.finishCell(j, i, res, false, nil)
		want(onDisk(), i+1)
	}
	if !bytes.Contains(j.trace.Bytes(), []byte("persist_error")) {
		t.Error("failed journal writes were not traced")
	}
	if err := os.RemoveAll(log); err != nil {
		t.Fatal(err)
	}
	srv.finishCell(j, 2, res, false, nil) // compacts: the journal is still suspect
	want(onDisk(), 3)
	if _, err := os.Stat(log); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("compaction left a journal (stat: %v)", err)
	}
	srv.finishCell(j, 3, res, false, nil) // appends again
	want(onDisk(), 3)
	if b, err := os.ReadFile(log); err != nil || bytes.Count(b, []byte("\n")) != 1 {
		t.Fatalf("journal after recovery: %q (%v), want one record", b, err)
	}
	srv.mu.Lock()
	err := closeJournal(j)
	srv.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := loadJobs(srv.jobsDir, srv.ckptDir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range jobs[0].cells {
		got = append(got, c.Status)
	}
	want(got, 4)
}

// TestJournalTornTail: a final journal record torn by a crash — cut short,
// or complete but undecodable — is dropped on boot. Its cell comes back
// pending and settles from the result cache (its run completed before the
// record was written), so nothing simulates again.
func TestJournalTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear func([]byte) []byte
	}{
		{"cut short", func(b []byte) []byte { return b[:len(b)-10] }},
		{"undecodable", func(b []byte) []byte {
			last := bytes.LastIndexByte(b[:len(b)-1], '\n')
			return append(b[:last+1], "{\"index\":2,\"cell\":{\x00\n"...)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			id, log := drainMidJob(t, dir)
			b, err := os.ReadFile(log)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(log, tc.tear(b), 0o644); err != nil {
				t.Fatal(err)
			}

			srv := newJournalServer(t, dir, 1)
			defer srv.Close()
			// Boot compacted the replay into the job file, which the
			// job's settlements leave alone until it finishes.
			b, err = os.ReadFile(filepath.Join(dir, "jobs", id+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var jf jobFile
			if err := json.Unmarshal(b, &jf); err != nil {
				t.Fatal(err)
			}
			var statuses []string
			for _, c := range jf.Cells {
				statuses = append(statuses, c.Status)
			}
			if got := strings.Join(statuses, " "); got != "done done pending pending pending pending" {
				t.Errorf("job file after boot: %s, want the two intact records done and the rest pending", got)
			}
			var records []byte
			waitState(t, srv, "torn cell settled", func() bool {
				if srv.jobs[id].cells[2].Status != cellDone {
					return false
				}
				records, err = os.ReadFile(log)
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			if bytes.Count(records, []byte("\n")) != 1 || !bytes.HasPrefix(records, []byte(`{"index":2,`)) {
				t.Errorf("journal after the torn cell settled: %s, want only that settlement", records)
			}
			srv.mu.Lock()
			cells := srv.jobs[id].cells
			first, torn := *cells[0], *cells[2]
			srv.mu.Unlock()
			if first.Status != cellDone || first.Cached || first.Result == nil {
				t.Errorf("journaled cell lost its simulated result: %+v", first)
			}
			if !torn.Cached || torn.Result == nil {
				t.Errorf("torn cell did not settle from the cache: %+v", torn)
			}
			if got := outcomeCount(srv, outcomeSimulated); got != 0 {
				t.Errorf("restart simulated %v cells before the long ones, want 0", got)
			}
			if got := outcomeCount(srv, outcomeCached); got != 1 {
				t.Errorf("restart served %v cells from the cache, want 1", got)
			}
		})
	}
}

// TestJournalCorruptRecord: journal damage other than a torn final record
// — an undecodable record followed by valid ones, or a record whose index
// or key does not match the job file — fails the boot with
// ErrCorruptJournal naming the journal, rather than loading a wrong state.
func TestJournalCorruptRecord(t *testing.T) {
	spec := JobSpec{Schemes: []string{"NOWL"}, Attacks: []string{"repeat"}, Seeds: []uint64{1, 2, 3}, Pages: 256, MeanEndurance: 3000}
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	res := &cellResult{Scheme: "NOWL", DemandWrites: 1}
	record := func(i int, key string) string {
		c := *buildCells(spec)[i]
		c.Key, c.Status, c.Result = key, cellDone, res
		b, err := json.Marshal(journalRecord{Index: i, Cell: &c})
		if err != nil {
			t.Fatal(err)
		}
		return string(b) + "\n"
	}
	cells := buildCells(spec)
	for _, tc := range []struct {
		name, log string
	}{
		{"undecodable middle record", record(0, cells[0].Key) + "{\"index\":1,\"cel\n" + record(2, cells[2].Key)},
		{"key mismatch", record(0, cells[0].Key) + record(1, cells[2].Key)},
		{"index out of range", record(0, cells[0].Key) + strings.Replace(record(2, cells[2].Key), `"index":2`, `"index":3`, 1)},
		{"non-terminal status", strings.Replace(record(1, cells[1].Key), `"status":"done"`, `"status":"running"`, 1)},
		{"neither cell nor cancel", "{\"index\":1}\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			jobsDir := filepath.Join(dir, "jobs")
			if err := os.MkdirAll(jobsDir, 0o755); err != nil {
				t.Fatal(err)
			}
			j := &job{id: jobID(1, spec), spec: spec, cells: buildCells(spec)}
			if err := persistJob(jobsDir, j); err != nil {
				t.Fatal(err)
			}
			log := journalPath(jobsDir, j.id)
			if err := os.WriteFile(log, []byte(tc.log), 0o644); err != nil {
				t.Fatal(err)
			}
			srv, err := New(Config{DataDir: dir, Workers: 1})
			if err == nil {
				srv.Close()
				t.Fatal("boot accepted a corrupt journal")
			}
			if !errors.Is(err, ErrCorruptJournal) || !strings.Contains(err.Error(), log) {
				t.Errorf("boot error %q: want ErrCorruptJournal naming %s", err, log)
			}
		})
	}
}

// TestJournalReplayMatchesLiveState: a job with every outcome — cached,
// failed, simulated and cancelled cells — reads back identically through
// GET /jobs/{id} after a restart, whether the daemon stopped after the
// job finished, crashed between the compaction's rename and the journal's
// removal, or crashed before compacting at all.
func TestJournalReplayMatchesLiveState(t *testing.T) {
	dir := t.TempDir()
	srv := newJournalServer(t, dir, 1)
	spec := longTailSpec()
	norm := spec
	if err := norm.normalize(); err != nil {
		t.Fatal(err)
	}
	keys := buildCells(norm)

	// Cell 0 is served from the cache of an earlier job; cell 1 fails on a
	// corrupt checkpoint; cell 2 simulates; the job is cancelled while
	// cell 3 runs, which cancels it and the pending cells 4 and 5.
	warm := spec
	warm.Schemes, warm.Seeds = []string{"NOWL"}, []uint64{1}
	warmID, _, err := srv.Submit(warm)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, "warm-up job done", func() bool { return !jobLive(srv.jobs[warmID]) })
	if err := os.WriteFile(filepath.Join(srv.ckptDir, keys[1].Key+".ckpt"), []byte("not a checkpoint"), 0o644); err != nil {
		t.Fatal(err)
	}
	id, _, err := srv.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(srv.jobsDir, id+".json")
	log := journalPath(srv.jobsDir, id)
	submitted, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var settledLog []byte
	waitState(t, srv, "cell 3 running", func() bool {
		if srv.jobs[id].cells[3].Status != cellRunning {
			return false
		}
		settledLog, err = os.ReadFile(log)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Cancel(id); err != nil {
		t.Fatal(err)
	}
	waitState(t, srv, "cancelled job settled", func() bool { return !jobLive(srv.jobs[id]) })
	want := statusBody(t, srv, id)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	var st jobStatus
	if err := json.Unmarshal(want, &st); err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, c := range st.Cells {
		got = append(got, fmt.Sprintf("%s/%t", c.Status, c.Cached))
	}
	if strings.Join(got, " ") != "done/true failed/false done/false cancelled/false cancelled/false cancelled/false" {
		t.Fatalf("live outcomes %v, want cached, failed, simulated, then three cancelled", got)
	}
	compacted, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	// What the journal held just before the final settlement compacted it.
	finalLog := append(settledLog, cancelRecord...)

	for _, tc := range []struct {
		name      string
		base, log []byte
	}{
		{"finished", compacted, nil},
		{"crash between compaction rename and journal removal", compacted, finalLog},
		{"crash before compaction", submitted, finalLog},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(base, tc.base, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.log != nil {
				if err := os.WriteFile(log, tc.log, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			srv := newJournalServer(t, dir, 1)
			defer srv.Close()
			if got := statusBody(t, srv, id); !bytes.Equal(got, want) {
				t.Errorf("GET /jobs/%s after restart:\n%s\nwant:\n%s", id, got, want)
			}
			if _, err := os.Stat(log); !errors.Is(err, os.ErrNotExist) {
				t.Errorf("journal survives the restart (stat: %v)", err)
			}
			if b, err := os.ReadFile(base); err != nil || !bytes.Equal(b, compacted) {
				t.Errorf("restart left a job file that differs from the live compaction (read err %v)", err)
			}
		})
	}
}

// TestLoadParentFormatState: a state directory written before jobs had
// journals, under the v1 cell key — one finished job, one drained mid-way
// with done and pending cells — loads with its done cells unchanged, and
// the unfinished job completes without re-running them. Its unfinished
// cells move to the key cellMaterial derives today: a v1 cache entry and
// a v1 checkpoint planted under their old keys are neither used nor kept.
func TestLoadParentFormatState(t *testing.T) {
	dir := t.TempDir()
	jobsDir := filepath.Join(dir, "jobs")
	if err := os.MkdirAll(jobsDir, 0o755); err != nil {
		t.Fatal(err)
	}
	fixtures, err := filepath.Glob(filepath.Join("testdata", "prejournal", "*.json"))
	if err != nil || len(fixtures) != 2 {
		t.Fatalf("fixtures %v (%v), want two job files", fixtures, err)
	}
	var want []jobFile
	pending := 0
	for _, f := range fixtures {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(jobsDir, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		var jf jobFile
		if err := json.Unmarshal(b, &jf); err != nil {
			t.Fatal(err)
		}
		want = append(want, jf)
		for _, c := range jf.Cells {
			if c.Status != cellDone {
				pending++
			}
		}
	}
	if pending == 0 {
		t.Fatal("fixtures have no unfinished cell")
	}
	store, err := cache.New(filepath.Join(dir, "cache"))
	if err != nil {
		t.Fatal(err)
	}
	ckptDir := filepath.Join(dir, "ckpt")
	if err := os.MkdirAll(ckptDir, 0o755); err != nil {
		t.Fatal(err)
	}
	planted := cellResult{Scheme: "planted", DemandWrites: 1}
	var oldCkpts []string
	for _, jf := range want {
		for _, c := range jf.Cells {
			if c.Status == cellDone {
				continue
			}
			env, err := json.Marshal(cellEnvelope{Version: envelopeVersion, Material: "twlcell/v1", Result: planted})
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Put(c.Key, env); err != nil {
				t.Fatal(err)
			}
			ckpt := filepath.Join(ckptDir, c.Key+".ckpt")
			if err := os.WriteFile(ckpt, []byte("v1 checkpoint"), 0o644); err != nil {
				t.Fatal(err)
			}
			oldCkpts = append(oldCkpts, ckpt)
		}
	}

	srv := newTestServer(t, dir, 1)
	defer srv.Close()
	for _, jf := range want {
		id := jf.ID
		waitState(t, srv, id+" done", func() bool { return !jobLive(srv.jobs[id]) })
		var st jobStatus
		if err := json.Unmarshal(statusBody(t, srv, id), &st); err != nil {
			t.Fatal(err)
		}
		if st.Status != cellDone || len(st.Cells) != len(jf.Cells) {
			t.Fatalf("%s: status %s with %d cells, want done with %d", id, st.Status, len(st.Cells), len(jf.Cells))
		}
		derived := buildCells(jf.Spec)
		for i, c := range jf.Cells {
			got := st.Cells[i]
			if got.Status != cellDone || got.Result == nil {
				t.Errorf("%s cell %d: %+v", id, i, got)
				continue
			}
			if c.Status == cellDone {
				if got.Key != c.Key || got.Cached != c.Cached || *got.Result != *c.Result {
					t.Errorf("%s cell %d: done cell changed on load:\n  file %+v\n  now  %+v", id, i, *c, got)
				}
				continue
			}
			if got.Key != derived[i].Key || got.Key == c.Key {
				t.Errorf("%s cell %d: key %s, want re-derived %s (file had %s)", id, i, got.Key, derived[i].Key, c.Key)
			}
			if got.Cached || *got.Result == planted {
				t.Errorf("%s cell %d settled from the planted v1 cache entry: %+v", id, i, got)
			}
		}
	}
	if got := outcomeCount(srv, outcomeSimulated); got != uint64(pending) {
		t.Errorf("simulated %v cells, want the %d unfinished ones", got, pending)
	}
	for _, ckpt := range oldCkpts {
		if _, err := os.Stat(ckpt); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("v1 checkpoint %s kept (stat: %v)", ckpt, err)
		}
	}
	logs, err := filepath.Glob(filepath.Join(jobsDir, "*.log"))
	if err != nil || len(logs) != 0 {
		t.Errorf("journals left after every job finished: %v (%v)", logs, err)
	}
}

// TestPanickingCellFails: a cell whose simulation panics settles failed
// with the panic text and its checkpoints removed; the job's other cells
// finish, and a restarted server does not run the failed cell again.
// (RBSG sizes its address space below Pages; the scan attack walks all
// of Pages and indexes past RBSG's region table.)
func TestPanickingCellFails(t *testing.T) {
	dir := t.TempDir()
	srv := newTestServer(t, dir, 2)
	ts := httptest.NewServer(srv.Handler())
	spec := JobSpec{Schemes: []string{"RBSG", "NOWL"}, Attacks: []string{"scan"}, Pages: 256, MeanEndurance: 3000}
	b, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	code, out := postJob(t, ts, string(b))
	if code != http.StatusCreated {
		t.Fatalf("submit: HTTP %d", code)
	}
	id := out["id"].(string)
	st := waitJob(t, ts, id)
	ts.Close()
	if st.Status != cellFailed {
		t.Fatalf("job finished %q, want failed: %+v", st.Status, st.Counts)
	}
	bad, good := st.Cells[0], st.Cells[1]
	if bad.Status != cellFailed || !strings.Contains(bad.Error, "panicked") {
		t.Errorf("RBSG/scan cell: status %s, error %q; want failed with the panic", bad.Status, bad.Error)
	}
	if good.Status != cellDone || good.Result == nil {
		t.Errorf("NOWL/scan cell: status %s; want done", good.Status)
	}
	if _, err := os.Stat(filepath.Join(srv.ckptDir, bad.Key+".ckpt")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("panicked cell left its checkpoint (stat: %v)", err)
	}
	want := statusBody(t, srv, id)
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	srv2 := newTestServer(t, dir, 2)
	defer srv2.Close()
	srv2.mu.Lock()
	queued := len(srv2.queue)
	srv2.mu.Unlock()
	if queued != 0 {
		t.Errorf("restart queued %d cells of a finished job", queued)
	}
	if got := statusBody(t, srv2, id); !bytes.Equal(got, want) {
		t.Errorf("failed job changed across a restart:\n%s\nwant:\n%s", got, want)
	}
}
