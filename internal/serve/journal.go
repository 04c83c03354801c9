package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
)

// Job persistence. A job lives in jobs/ as a base file, <id>.json, plus an
// append-only journal, <id>.log:
//
//   - Submit writes the base file once: the spec and every cell, pending.
//   - Each terminal cell transition (done, cached, failed, cancelled) and
//     each Cancel appends one self-contained JSON line to the journal in a
//     single write, so settling a cell costs the same whatever the job's
//     size. A drain preemption writes nothing: pending is the base state.
//   - The transition that leaves no cell pending or running compacts the job
//     instead: the base file is rewritten with the final state (temp +
//     rename) and the journal removed, so a finished job is one
//     self-contained file.
//   - loadJobs replays each journal over its base file, then compacts.
//
// Records are absolute — "cell i with key K is now X" — so replaying one
// twice is harmless, which is what makes a crash between the compaction's
// rename and the journal's removal safe. Nothing is fsynced: a SIGKILL
// cannot tear a single write(2), and a torn final line (a power cut) is
// dropped on replay — that cell comes back pending and, if it had finished,
// settles from the result cache, since the cache entry is written before
// the journal line.

// ErrCorruptJournal is wrapped by loadJobs when a job journal is damaged
// beyond a torn final record: an undecodable line followed by valid ones,
// or a record that does not match its base file.
var ErrCorruptJournal = errors.New("serve: corrupt job journal")

// jobFile is the on-disk form of a job's base file.
type jobFile struct {
	ID        string  `json:"id"`
	Spec      JobSpec `json:"spec"`
	Cancelled bool    `json:"cancelled,omitempty"`
	Cells     []*cell `json:"cells"`
}

// journalRecord is one journal line: a cell's new terminal state
// ({"index": i, "cell": {...}}), or the job's cancellation
// ({"cancelled": true}), which also cancels every cell still pending at
// that point in the journal.
type journalRecord struct {
	Index     int   `json:"index"`
	Cell      *cell `json:"cell,omitempty"`
	Cancelled bool  `json:"cancelled,omitempty"`
}

// cancelRecord is the journal line of a Cancel.
var cancelRecord = []byte(`{"cancelled":true}` + "\n")

// cellRecord encodes the journal line settling cell i of j. Must be called
// with the server's mu held (it reads mutable cell state).
func cellRecord(j *job, i int) ([]byte, error) {
	b, err := json.Marshal(journalRecord{Index: i, Cell: j.cells[i]})
	if err != nil {
		return nil, fmt.Errorf("serve: encode journal record for job %s: %w", j.id, err)
	}
	return append(b, '\n'), nil
}

func journalPath(dir, id string) string { return filepath.Join(dir, id+".log") }

// jobLive reports whether some cell of j is still pending or running. Must
// be called with the server's mu held.
func jobLive(j *job) bool {
	for _, c := range j.cells {
		if c.Status == cellPending || c.Status == cellRunning {
			return true
		}
	}
	return false
}

// persist records a transition of j that rec, a journal line, describes:
// appended to the journal while some cell is still live, otherwise (and
// whenever appending fails) by compaction. Must be called with the
// server's mu held, so the journal's record order is the lock order.
func persist(dir string, j *job, rec []byte) error {
	var appendErr error
	if jobLive(j) && !j.journalBroken {
		if appendErr = appendJournal(dir, j, rec); appendErr == nil {
			return nil
		}
	}
	// After a failed append the journal may end in a partial line, which a
	// later append would turn into a corrupt record mid-file; nothing more
	// is appended until a compaction has replaced it.
	err := compactJob(dir, j)
	j.journalBroken = err != nil
	return errors.Join(appendErr, err)
}

// appendJournal writes rec to j's journal in one write, opening the journal
// on first use.
func appendJournal(dir string, j *job, rec []byte) error {
	if j.journal == nil {
		f, err := os.OpenFile(journalPath(dir, j.id), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("serve: journal job %s: %w", j.id, err)
		}
		j.journal = f
	}
	if _, err := j.journal.Write(rec); err != nil {
		return fmt.Errorf("serve: journal job %s: %w", j.id, err)
	}
	return nil
}

// closeJournal releases j's journal handle, if open.
func closeJournal(j *job) error {
	if j.journal == nil {
		return nil
	}
	err := j.journal.Close()
	j.journal = nil
	if err != nil {
		return fmt.Errorf("serve: close journal of job %s: %w", j.id, err)
	}
	return nil
}

// compactJob rewrites j's base file with its whole current state and
// removes its journal. The journal is only removed once the new base file
// is in place, so a crash in between replays absolute records over a base
// that already holds them.
func compactJob(dir string, j *job) error {
	// The journal is about to be superseded; its close error cannot lose
	// anything the new base file does not hold.
	_ = closeJournal(j)
	if err := persistJob(dir, j); err != nil {
		return err
	}
	if err := os.Remove(journalPath(dir, j.id)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("serve: compact job %s: %w", j.id, err)
	}
	return nil
}

// persistJob atomically writes the job's base file. Must be called with the
// server's mu held (it snapshots mutable cell state).
func persistJob(dir string, j *job) error {
	jf := jobFile{ID: j.id, Spec: j.spec, Cancelled: j.cancelled, Cells: j.cells}
	b, err := json.MarshalIndent(jf, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode job %s: %w", j.id, err)
	}
	path := filepath.Join(dir, j.id+".json")
	tmp, err := os.CreateTemp(dir, j.id+".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: persist job %s: %w", j.id, err)
	}
	if _, err := tmp.Write(b); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("serve: persist job %s: %w", j.id, err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("serve: persist job %s: %w", j.id, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("serve: persist job %s: %w", j.id, err)
	}
	return nil
}

// loadJobs reads every job in dir, in lexical (= submission) order: the
// base file, then its journal replayed and compacted into it. Cells that
// were running when the previous daemon died come back pending, under the
// key the current cellMaterial derives: a cell left unfinished by an older
// key version must neither settle from that version's cache entry nor
// resume its checkpoint, so rekey moves it and its old checkpoints in
// ckptDir are removed.
func loadJobs(dir, ckptDir string) ([]*job, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serve: load jobs: %w", err)
	}
	var jobs []*job
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("serve: load jobs: %w", err)
		}
		var jf jobFile
		if err := json.Unmarshal(b, &jf); err != nil {
			return nil, fmt.Errorf("serve: load job %s: %w", e.Name(), err)
		}
		j := &job{id: jf.ID, spec: jf.Spec, cancelled: jf.Cancelled, cells: jf.Cells}
		for _, c := range j.cells {
			if c.Status == cellRunning {
				c.Status = cellPending
			}
		}
		path := journalPath(dir, j.id)
		data, err := os.ReadFile(path)
		journaled := err == nil
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			return nil, fmt.Errorf("serve: load jobs: %w", err)
		default:
			if err := replayJournal(path, data, j); err != nil {
				return nil, err
			}
		}
		stale, err := rekey(j)
		if err != nil {
			return nil, err
		}
		for _, key := range stale {
			removeCheckpoints(ckptDir, key)
		}
		if journaled || len(stale) > 0 {
			if err := compactJob(dir, j); err != nil {
				return nil, err
			}
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}

// rekey gives every pending cell of j the key its spec derives today and
// returns the keys it replaced. Settled cells keep the key they settled
// under.
func rekey(j *job) ([]string, error) {
	fresh := buildCells(j.spec)
	if len(fresh) != len(j.cells) {
		return nil, fmt.Errorf("serve: load job %s: spec expands to %d cells, file has %d",
			j.id, len(fresh), len(j.cells))
	}
	var stale []string
	for i, c := range j.cells {
		if c.Status == cellPending && c.Key != fresh[i].Key {
			stale = append(stale, c.Key)
			c.Key = fresh[i].Key
		}
	}
	return stale, nil
}

// replayJournal applies the journal data, read from path, to j. A final
// line that has no newline or does not decode is a write torn by a crash
// and is dropped; any other damage is an ErrCorruptJournal naming the file
// and line.
func replayJournal(path string, data []byte, j *job) error {
	for n := 1; len(data) > 0; n++ {
		line, rest, complete := bytes.Cut(data, []byte{'\n'})
		if !complete {
			return nil
		}
		data = rest
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			if len(data) == 0 {
				return nil
			}
			return fmt.Errorf("%w: %s line %d: %v", ErrCorruptJournal, path, n, err)
		}
		if err := applyRecord(j, rec); err != nil {
			return fmt.Errorf("%w: %s line %d: %v", ErrCorruptJournal, path, n, err)
		}
	}
	return nil
}

// applyRecord sets the state one journal record describes.
func applyRecord(j *job, rec journalRecord) error {
	switch {
	case rec.Cancelled && rec.Cell == nil:
		j.cancelled = true
		for _, c := range j.cells {
			if c.Status == cellPending {
				c.Status = cellCancelled
			}
		}
		return nil
	case rec.Cell == nil || rec.Cancelled:
		return fmt.Errorf("record is neither a cell settlement nor a cancellation")
	case rec.Index < 0 || rec.Index >= len(j.cells):
		return fmt.Errorf("cell index %d outside the job's %d cells", rec.Index, len(j.cells))
	}
	c, r := j.cells[rec.Index], rec.Cell
	if r.Key != c.Key {
		return fmt.Errorf("cell %d has key %s, base file has %s", rec.Index, r.Key, c.Key)
	}
	switch r.Status {
	case cellDone, cellFailed, cellCancelled:
	default:
		return fmt.Errorf("cell %d settles to non-terminal status %q", rec.Index, r.Status)
	}
	c.Status, c.Cached, c.Error, c.Result = r.Status, r.Cached, r.Error, r.Result
	return nil
}
