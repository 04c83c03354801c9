package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
)

// The HTTP surface. All responses are JSON except /metrics (Prometheus
// exposition) and /jobs/{id}/trace (the job's JSONL event stream):
//
//	POST /jobs             submit a JobSpec        → 201 {"id", "cells"}
//	GET  /jobs             list jobs               → {"jobs": [...]}
//	GET  /jobs/{id}        job status + cell mask
//	GET  /jobs/{id}/trace  JSONL trace stream
//	POST /jobs/{id}/cancel cancel a job
//	GET  /metrics          service metrics
//	GET  /healthz          liveness probe

// jobSummary is one row of the job list.
type jobSummary struct {
	ID     string `json:"id"`
	Status string `json:"status"`
	Cells  int    `json:"cells"`
	Done   int    `json:"done"`
}

// jobStatus is the full status of one job: a snapshot of every cell plus
// the completed-cell mask (true exactly for done cells, the resume unit).
type jobStatus struct {
	ID        string         `json:"id"`
	Status    string         `json:"status"`
	Cancelled bool           `json:"cancelled,omitempty"`
	Completed []bool         `json:"completed"`
	Counts    map[string]int `json:"counts"`
	Cells     []cell         `json:"cells"`
}

// Handler returns the service's HTTP mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	return mux
}

// writeJSON writes v with the given status; encoding failures turn into a
// 500 only if nothing was written yet.
func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, fmt.Sprintf("encode response: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(append(b, '\n'))
}

// writeError maps service errors to statuses: unknown job → 404, closed →
// 503, everything else (validation) → 400.
func writeError(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	switch {
	case errors.Is(err, ErrNoJob):
		status = http.StatusNotFound
	case errors.Is(err, ErrClosed):
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// decodeSpec decodes one job body, rejecting unknown fields and anything
// but whitespace after the object.
func decodeSpec(r io.Reader) (JobSpec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var spec JobSpec
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	if _, err := dec.Token(); err != io.EOF {
		return spec, errors.New("trailing data after the job object")
	}
	return spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	spec, err := decodeSpec(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		writeError(w, fmt.Errorf("serve: decode job: %w", err))
		return
	}
	id, cells, err := s.Submit(spec)
	if err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{"id": id, "cells": cells})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	out := make([]jobSummary, 0, len(s.order))
	for _, id := range s.order {
		j := s.jobs[id]
		done := 0
		for _, c := range j.cells {
			if c.Status == cellDone {
				done++
			}
		}
		out = append(out, jobSummary{ID: id, Status: jobState(j), Cells: len(j.cells), Done: done})
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, map[string]any{"jobs": out})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	if j == nil {
		s.mu.Unlock()
		writeError(w, fmt.Errorf("%w: %s", ErrNoJob, id))
		return
	}
	st := jobStatus{
		ID:        j.id,
		Status:    jobState(j),
		Cancelled: j.cancelled,
		Completed: make([]bool, len(j.cells)),
		Counts:    map[string]int{},
		Cells:     make([]cell, len(j.cells)),
	}
	for i, c := range j.cells {
		st.Cells[i] = *c // value snapshot; safe to encode after unlock
		st.Completed[i] = c.Status == cellDone
		st.Counts[c.Status]++
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// jobState derives the job's status from its cells. Must be called with
// the server's mu held.
//
//twl:locked mu
func jobState(j *job) string {
	counts := map[string]int{}
	for _, c := range j.cells {
		counts[c.Status]++
	}
	if counts[cellPending]+counts[cellRunning] > 0 {
		return "running"
	}
	switch {
	case j.cancelled || counts[cellCancelled] > 0:
		return cellCancelled
	case counts[cellFailed] > 0:
		return cellFailed
	default:
		return cellDone
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j := s.jobs[id]
	s.mu.Unlock()
	if j == nil {
		writeError(w, fmt.Errorf("%w: %s", ErrNoJob, id))
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	_, _ = w.Write(j.trace.Bytes())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "cancelling"})
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// The cache keeps its own atomic counters; mirror them into the
	// registry at scrape time (Set is idempotent, so concurrent scrapes
	// cannot double-count).
	st := s.store.Stats()
	s.reg.Gauge("twl_serve_cache_hits_total").Set(float64(st.Hits))
	s.reg.Gauge("twl_serve_cache_misses_total").Set(float64(st.Misses))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.reg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
