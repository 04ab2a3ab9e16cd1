package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"graphdiam/internal/bsp/transport"
	"graphdiam/internal/fleet"
	"graphdiam/internal/store"
)

// Distributed endpoints (see the package doc for the rest of the API):
//
//	POST /v2/bsp/frames?run=&step=&from=  deliver one BSP frame blob
//	                                      (raw body; the data plane)
//	POST /v2/distributed/run              start this daemon's rank of a
//	                                      fleet run (coordinator fan-out)
//	POST /v2/distributed/jobs             coordinate a fleet run and wait
//	                                      for this daemon's replica of the
//	                                      result
//	GET  /v2/distributed                  fleet membership info
//
// The frames endpoint is mounted unconditionally (frames for unknown runs
// are buffered briefly and expire); the control endpoints answer 503 until
// the daemon is started with -peers/-worker-id, mirroring how the dataset
// endpoints behave without -data-dir.

// handleBSPFrame ingests one frame blob from a remote peer into the
// registry. The body is the opaque frame payload; run identity travels in
// query parameters so the body needs no envelope (and stays zero-copy into
// the inbox).
func (s *Server) handleBSPFrame(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	runID := q.Get("run")
	step, err1 := strconv.ParseUint(q.Get("step"), 10, 64)
	from, err2 := strconv.Atoi(q.Get("from"))
	if runID == "" || err1 != nil || err2 != nil || from < 0 {
		fleet.WriteJSONError(w, http.StatusBadRequest, fmt.Errorf("frames need run, step, and from parameters"))
		return
	}
	blob, err := io.ReadAll(r.Body)
	if err != nil {
		fleet.WriteJSONError(w, http.StatusBadRequest, fmt.Errorf("read frame body: %w", err))
		return
	}
	if err := s.st.BSPRegistry().Deliver(runID, step, from, blob); err != nil {
		// Delivery refusals are protocol errors on the sender's part
		// (diverged step window, finished run): 4xx tells the sender's
		// retry loop not to bother.
		fleet.WriteJSONError(w, http.StatusBadRequest, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleDistributedRun starts this daemon's participant for a fleet run.
// It returns 202 immediately: the run proceeds in the background, speaking
// to its peers through the frames endpoint.
func (s *Server) handleDistributedRun(w http.ResponseWriter, r *http.Request) {
	if !s.st.DistributedEnabled() {
		fleet.WriteJSONError(w, http.StatusServiceUnavailable,
			fmt.Errorf("this daemon is not part of a fleet (start with -peers and -worker-id)"))
		return
	}
	var req store.DistJobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := s.st.StartDistributedParticipant(req); err != nil {
		fleet.WriteJSONError(w, http.StatusBadRequest, err)
		return
	}
	fleet.WriteJSON(w, http.StatusAccepted, map[string]string{"runId": req.RunID, "state": "running"})
}

// handleDistributedJob coordinates one fleet run: fans the job out to the
// other daemons, participates as this daemon's rank, and answers with the
// (fleet-identical) result. Transport failures map to gateway statuses so
// clients can tell a sick fleet from a bad request.
func (s *Server) handleDistributedJob(w http.ResponseWriter, r *http.Request) {
	if !s.st.DistributedEnabled() {
		fleet.WriteJSONError(w, http.StatusServiceUnavailable,
			fmt.Errorf("this daemon is not part of a fleet (start with -peers and -worker-id)"))
		return
	}
	var req JobRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	switch req.Op {
	case "decompose":
		res, err := s.st.DistributedDecompose(r.Context(), req.Graph, req.Params)
		if err != nil {
			writeDistributedError(w, err)
			return
		}
		fleet.WriteJSON(w, http.StatusOK, res)
	case "diameter":
		res, err := s.st.DistributedDiameter(r.Context(), req.Graph, req.Params)
		if err != nil {
			writeDistributedError(w, err)
			return
		}
		fleet.WriteJSON(w, http.StatusOK, res)
	default:
		fleet.WriteJSONError(w, http.StatusBadRequest, fmt.Errorf("unknown op %q (want decompose or diameter)", req.Op))
	}
}

// handleDistributedInfo reports fleet membership.
func (s *Server) handleDistributedInfo(w http.ResponseWriter, _ *http.Request) {
	rank, peers, ok := s.st.DistributedInfo()
	if !ok {
		fleet.WriteJSONError(w, http.StatusServiceUnavailable,
			fmt.Errorf("this daemon is not part of a fleet (start with -peers and -worker-id)"))
		return
	}
	fleet.WriteJSON(w, http.StatusOK, map[string]any{"rank": rank, "peers": peers})
}

// writeDistributedError maps fleet-run failures: peer and barrier faults
// are the fleet's problem (502/504), everything else follows the usual
// compute mapping.
func writeDistributedError(w http.ResponseWriter, err error) {
	var terr *transport.Error
	if errors.As(err, &terr) {
		switch terr.Kind {
		case transport.ErrBarrierTimeout:
			fleet.WriteJSONError(w, http.StatusGatewayTimeout, err)
			return
		case transport.ErrUnreachable, transport.ErrPeerDown, transport.ErrClosed:
			fleet.WriteJSONError(w, http.StatusBadGateway, err)
			return
		}
	}
	writeComputeError(w, err)
}
