package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"hgpart/internal/core"
	"hgpart/internal/hypergraph"
	"hgpart/internal/objective"
	"hgpart/internal/partition"
)

// checkBisection is the per-operation check of a bisection result: the
// partition's incremental state must survive a from-scratch recount, it must
// sit inside the balance window (core.VerifyPartition checks both), and the
// cut the caller reports must be the partition's cut.
func checkBisection(p *partition.P, bal partition.Balance, cut int64) error {
	if p == nil {
		return errors.New("no partition")
	}
	if err := core.VerifyPartition(p, bal); err != nil {
		return err
	}
	if cut != p.Cut() {
		return fmt.Errorf("reported cut %d, partition has %d", cut, p.Cut())
	}
	return nil
}

// checkAssignment applies checkBisection to a 2-way part assignment, as
// kwayfm.ParRefine returns it.
func checkAssignment(h *hypergraph.Hypergraph, parts objective.Assignment, bal partition.Balance, cut int64) error {
	sides := make([]uint8, len(parts))
	for v, s := range parts {
		sides[v] = uint8(s)
	}
	p := partition.New(h)
	if err := p.Assign(sides); err != nil {
		return err
	}
	return checkBisection(p, bal, cut)
}

// servedReport is the part of an hgserved report the checks read.
type servedReport struct {
	InstanceHash string `json:"instance_hash"`
	CacheKey     string `json:"cache_key"`
	Seed         uint64 `json:"seed"`
	Cut          int64  `json:"cut"`
	Side0        int64  `json:"side0"`
	Side1        int64  `json:"side1"`
	Failed       int    `json:"failed"`
	Incomplete   bool   `json:"incomplete"`
}

// expectation is what a served response for one request must show.
type expectation struct {
	disposition string // X-Hgserved-Cache: "hit" or "miss"
	seed        uint64
	hash        string // instance_hash; empty when not yet known
	first       []byte // bytes a hit must repeat exactly; nil for a miss
	total       int64  // total vertex weight of the instance
	bal         partition.Balance
}

// checkServed checks one response: status 200 with the expected cache
// disposition, a hit byte-identical to the first response for its key, the
// instance's stable hash, the request's seed, a complete run, and side
// areas that sum to the instance's weight inside the balance window.
func checkServed(code int, disposition string, body []byte, want expectation) (servedReport, error) {
	var rep servedReport
	if code != http.StatusOK {
		return rep, fmt.Errorf("status %d: %.200s", code, body)
	}
	if disposition != want.disposition {
		return rep, fmt.Errorf("cache disposition %q, want %q", disposition, want.disposition)
	}
	if want.first != nil && !bytes.Equal(body, want.first) {
		return rep, errors.New("hit bytes differ from the first response for its key")
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return rep, fmt.Errorf("decode report: %w", err)
	}
	switch {
	case want.hash != "" && rep.InstanceHash != want.hash:
		return rep, fmt.Errorf("instance_hash %s, want %s", rep.InstanceHash, want.hash)
	case rep.Seed != want.seed:
		return rep, fmt.Errorf("report seed %d, want %d", rep.Seed, want.seed)
	case rep.Incomplete || rep.Failed != 0:
		return rep, fmt.Errorf("incomplete report (%d starts failed)", rep.Failed)
	case rep.Side0+rep.Side1 != want.total:
		return rep, fmt.Errorf("sides %d+%d, want total weight %d", rep.Side0, rep.Side1, want.total)
	case !want.bal.Contains(rep.Side0) || !want.bal.Contains(rep.Side1):
		return rep, fmt.Errorf("sides %d/%d outside [%d,%d]", rep.Side0, rep.Side1, want.bal.Lo, want.bal.Hi)
	}
	return rep, nil
}
