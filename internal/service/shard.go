package service

// Trial-level sharding over HTTP. A flat campaign of N trials splits into S
// contiguous global-index ranges (campaign.ShardRange); each shard runs
// either in-process (campaign.OverallShard) or on a peer peppaxd -worker via
// POST /shard. Because every trial's RNG derives from (seed, global trial
// index) alone, the merged tally is bit-identical to the single-process
// campaign at any shard count or worker count — the wire protocol moves
// only Counts, never RNG state.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/campaign"
	"repro/internal/fault"
	"repro/internal/parallel"
)

// ShardRequest asks a worker to run trials [Lo, Hi) of a flat campaign.
type ShardRequest struct {
	Bench string `json:"bench"`
	// Input follows the JobSpec rule: one value per benchmark argument,
	// empty for the reference input.
	Input   []float64 `json:"input,omitempty"`
	Seed    uint64    `json:"seed"`
	Lo      int       `json:"lo"`
	Hi      int       `json:"hi"`
	Workers int       `json:"workers,omitempty"`
	// FaultModel names the fault model every trial samples from
	// (fault.ModelNames; "" = the single-bit-flip default). Coordinator and
	// worker must agree or the merged tally loses bit-identity, so it rides
	// in the request like the seed does.
	FaultModel string `json:"fault_model,omitempty"`
	// GoldenDyn is the coordinator's golden dynamic-instruction count. The
	// worker rebuilds the golden from (bench, input) and must land on the
	// same count — a mismatch means divergent programs and poisons
	// bit-identity, so it fails the shard rather than merging garbage.
	GoldenDyn int64 `json:"golden_dyn"`
}

// ShardResponse carries one shard's tally back to the coordinator.
type ShardResponse struct {
	Counts    campaign.Counts `json:"counts"`
	GoldenDyn int64           `json:"golden_dyn"`
}

// runFlatCampaign coordinates a sharded flat campaign. Shards are assigned
// round-robin over [in-process, peers...]; remote failures fall back to
// in-process execution (with a job event) so a dead peer degrades throughput,
// not correctness. Tallies merge in shard order, making the merge — like
// everything else in the trial pipeline — a deterministic fold.
func (s *Server) runFlatCampaign(ctx context.Context, spec *JobSpec, be *benchEntry, g *campaign.Golden, model fault.Model, meter *tokenMeter, ew *eventWriter) (campaign.Counts, error) {
	trials := spec.Trials
	shards := spec.Shards
	if shards < 1 {
		shards = 1
	}
	if shards > trials && trials > 0 {
		shards = trials
	}
	popts := campaign.ParallelOptions{
		Workers: spec.Workers,
		Seed:    spec.Seed,
		Ctx:     ctx,
		Model:   model,
	}

	if shards == 1 && len(s.cfg.Peers) == 0 {
		c := campaign.OverallParallel(be.b.Prog, g, trials, popts)
		meter.charge(c.DynInstrs)
		s.rec.Count("service.shard.trials", int64(c.Trials))
		s.rec.Count("service.shard.dyn", c.DynInstrs)
		return c, nil
	}

	executors := 1 + len(s.cfg.Peers)
	tallies := make([]campaign.Counts, shards)
	errs := make([]error, shards)
	parallel.ForEach(shards, shards, func(sh int) {
		lo, hi := campaign.ShardRange(trials, sh, shards)
		if hi <= lo {
			return
		}
		if peer := sh % executors; peer > 0 {
			c, err := s.dispatchShard(ctx, s.cfg.Peers[peer-1], spec, g, lo, hi)
			if err == nil {
				tallies[sh] = c
				return
			}
			if ctx.Err() != nil {
				errs[sh] = err
				return
			}
			ew.event("shard.fallback", map[string]any{
				"shard": sh, "peer": s.cfg.Peers[peer-1], "error": err.Error(),
			})
			s.rec.Count("service.shard.fallbacks", 1)
		}
		tallies[sh] = campaign.OverallShard(be.b.Prog, g, lo, hi, popts)
	})
	var c campaign.Counts
	for sh := 0; sh < shards; sh++ {
		if errs[sh] != nil {
			return c, fmt.Errorf("shard %d/%d: %w", sh, shards, errs[sh])
		}
		c.Merge(tallies[sh])
	}
	meter.charge(c.DynInstrs)
	s.rec.Count("service.shard.trials", int64(c.Trials))
	s.rec.Count("service.shard.dyn", c.DynInstrs)
	return c, nil
}

// dispatchShard runs one shard on a peer worker and verifies the
// determinism contract before accepting its tally.
func (s *Server) dispatchShard(ctx context.Context, peer string, spec *JobSpec, g *campaign.Golden, lo, hi int) (campaign.Counts, error) {
	var c campaign.Counts
	body, err := json.Marshal(ShardRequest{
		Bench:      spec.Bench,
		Input:      spec.Input,
		Seed:       spec.Seed,
		Lo:         lo,
		Hi:         hi,
		Workers:    spec.Workers,
		FaultModel: spec.FaultModel,
		GoldenDyn:  g.DynCount,
	})
	if err != nil {
		return c, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, peer+"/shard", bytes.NewReader(body))
	if err != nil {
		return c, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return c, fmt.Errorf("peer %s: %s: %s", peer, resp.Status, bytes.TrimSpace(msg))
	}
	var sr ShardResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		return c, fmt.Errorf("peer %s: decoding response: %w", peer, err)
	}
	if sr.GoldenDyn != g.DynCount {
		return c, fmt.Errorf("peer %s: golden mismatch (%d dyn, coordinator has %d) — divergent program or input",
			peer, sr.GoldenDyn, g.DynCount)
	}
	return sr.Counts, nil
}

// handleShard executes one shard request against the shared work cache and
// returns its tally. Workers serve this endpoint whether or not they also
// accept jobs, so a pool of symmetric peppaxd processes can shard to each
// other.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var sr ShardRequest
	if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
		http.Error(w, "bad shard request: "+err.Error(), http.StatusBadRequest)
		return
	}
	if !s.names[sr.Bench] {
		http.Error(w, fmt.Sprintf("unknown benchmark %q", sr.Bench), http.StatusBadRequest)
		return
	}
	if sr.Lo < 0 || sr.Hi < sr.Lo {
		http.Error(w, fmt.Sprintf("bad shard range [%d, %d)", sr.Lo, sr.Hi), http.StatusBadRequest)
		return
	}
	model, err := fault.CampaignModel(sr.FaultModel)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	be := s.cache.bench(sr.Bench)
	if sr.Input, err = resolveInput(be.b, sr.Input); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ge, _, err := s.cache.golden(be, sr.Input)
	s.publishCacheMetrics()
	if err != nil {
		http.Error(w, "golden run failed: "+err.Error(), http.StatusUnprocessableEntity)
		return
	}
	c := campaign.OverallShard(be.b.Prog, ge.g, sr.Lo, sr.Hi, campaign.ParallelOptions{
		Workers: sr.Workers,
		Seed:    sr.Seed,
		Ctx:     r.Context(),
		Model:   model,
	})
	s.rec.Count("service.shard.trials", int64(c.Trials))
	s.rec.Count("service.shard.dyn", c.DynInstrs)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(ShardResponse{Counts: c, GoldenDyn: ge.g.DynCount})
}
