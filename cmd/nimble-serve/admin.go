package main

import (
	"encoding/json"
	"fmt"
	"net/http"

	"nimble"
	"nimble/cmd/internal/cli"
)

// deployRequest is the /admin/deploy body. Model must be a registered
// model name (the same set -model accepts); the build is deterministic, so
// a deploy without "exe" reproduces the model with fresh weights exactly
// as -model does at startup. "exe" loads a serialized executable written
// by nimble compile instead — the production path, where new weights
// arrive as artifacts.
type deployRequest struct {
	Model string `json:"model"`
	// Exe optionally names a serialized executable to load and relink
	// (empty = compile in memory).
	Exe string `json:"exe,omitempty"`
	// Canary deploys the build as a canary at this percentage of unpinned
	// traffic (1–99) instead of hot-swapping outright.
	Canary int `json:"canary,omitempty"`
}

// adminTarget is the body of /admin/promote and /admin/rollback.
type adminTarget struct {
	Model string `json:"model"`
}

// handleDeploy builds (or loads) the named model and deploys it through
// the registry: a plain deploy is a zero-downtime hot-swap — the previous
// version drains and is released once its in-flight work finishes — and a
// canary deploy starts a percentage rollout ended by promote/rollback.
func (s *server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req deployRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Model == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf(`"model" is required (%s)`, cli.Names()))
		return
	}
	if req.Canary < 0 || req.Canary > 99 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("canary %d outside [0,99]", req.Canary))
		return
	}
	m, err := cli.BuildOrLoad(req.Model, req.Exe)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	var opts []nimble.DeployOption
	if req.Canary > 0 {
		opts = append(opts, nimble.WithCanary(req.Canary))
	}
	ver, err := s.reg.Deploy(req.Model, m.Program, opts...)
	if err != nil {
		httpError(w, invokeStatus(err), err)
		return
	}
	state := "stable"
	if req.Canary > 0 {
		state = "canary"
	}
	writeJSON(w, map[string]any{
		"model": req.Model, "version": ver, "state": state, "percent": req.Canary,
	})
}

// handlePromote ends a canary rollout in its favor: the canary becomes the
// stable version and the old stable drains.
func (s *server) handlePromote(w http.ResponseWriter, r *http.Request) {
	s.endRollout(w, r, true)
}

// handleRollback ends a canary rollout against it: the canary drains and
// the stable version keeps serving untouched.
func (s *server) handleRollback(w http.ResponseWriter, r *http.Request) {
	s.endRollout(w, r, false)
}

func (s *server) endRollout(w http.ResponseWriter, r *http.Request, promote bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	var req adminTarget
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("decoding request: %w", err))
		return
	}
	if req.Model == "" {
		httpError(w, http.StatusBadRequest, fmt.Errorf(`"model" is required`))
		return
	}
	var ver string
	var err error
	action := "rolled-back"
	if promote {
		ver, err = s.reg.Promote(req.Model)
		action = "promoted"
	} else {
		ver, err = s.reg.Rollback(req.Model)
	}
	if err != nil {
		httpError(w, invokeStatus(err), err)
		return
	}
	writeJSON(w, map[string]any{"model": req.Model, "version": ver, "state": action})
}
