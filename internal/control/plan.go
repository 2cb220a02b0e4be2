// Package control is the hided daemon's HTTP control plane: JSON
// endpoints over stdlib net/http for the port table, associated
// stations, and live counters, a Prometheus-text /metrics exposition,
// a /healthz probe, and a POST /v1/fault endpoint that installs
// internal/fault plans on the live airlink — so the chaos scenarios
// the in-process grid runs can be driven against a real daemon over
// real sockets.
//
// The package holds no daemon state and reads no clocks: every
// request is answered from the Backend interface the daemon
// implements, and the PlanSpec grammar is a pure JSON mirror of the
// fault-plan combinators. Malformed input — including adversarial
// /v1/fault bodies, see FuzzControlRequest — must produce an HTTP
// error, never a panic.
package control

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/dot11"
	"repro/internal/fault"
)

// maxPlanDepth bounds PlanSpec recursion so a deeply nested body
// cannot blow the stack.
const maxPlanDepth = 32

// maxPlanNodes bounds the total combinator count of one spec.
const maxPlanNodes = 1024

// PlanSpec is the JSON grammar for fault plans — one node per
// internal/fault combinator. Leaves: "loss", "corrupt", "duplicate"
// (probability p), "gilbert-elliott" (the four chain parameters).
// Wrappers: "only" (inner + frames), "to" (inner + to), "window"
// (inner + from_ms/until_ms), "silence" (to + from_ms), "compose"
// (plans). Example:
//
//	{"kind":"compose","plans":[
//	  {"kind":"window","from_ms":100,"until_ms":400,
//	   "inner":{"kind":"loss","p":0.5}},
//	  {"kind":"only","frames":["beacon"],"inner":{"kind":"corrupt","p":0.1}}]}
type PlanSpec struct {
	Kind string `json:"kind"`

	// P is the per-delivery probability for loss/corrupt/duplicate.
	P float64 `json:"p,omitempty"`

	// Gilbert-Elliott chain parameters.
	PGoodBad float64 `json:"p_good_bad,omitempty"`
	PBadGood float64 `json:"p_bad_good,omitempty"`
	LossGood float64 `json:"loss_good,omitempty"`
	LossBad  float64 `json:"loss_bad,omitempty"`

	// Frames restricts an "only" wrapper to the named frame kinds
	// (dot11.FrameKind String names: "beacon", "data", ...).
	Frames []string `json:"frames,omitempty"`

	// To targets a "to" or "silence" node at one receiver MAC
	// ("02:1d:e0:aa:00:10").
	To string `json:"to,omitempty"`

	// FromMS/UntilMS bound a "window" (virtual-time milliseconds since
	// daemon boot); FromMS alone starts a "silence".
	FromMS  int64 `json:"from_ms,omitempty"`
	UntilMS int64 `json:"until_ms,omitempty"`

	// Inner is the wrapped plan for "only", "to", and "window".
	Inner *PlanSpec `json:"inner,omitempty"`

	// Plans are the children of a "compose" node.
	Plans []PlanSpec `json:"plans,omitempty"`
}

// Build compiles the spec into a fault.Plan, validating every node.
// It never panics on malformed input.
func (s *PlanSpec) Build() (fault.Plan, error) {
	if s == nil {
		return nil, fmt.Errorf("control: nil plan spec")
	}
	nodes := 0
	return s.build(0, &nodes)
}

func (s *PlanSpec) build(depth int, nodes *int) (fault.Plan, error) {
	if depth > maxPlanDepth {
		return nil, fmt.Errorf("control: plan nested deeper than %d", maxPlanDepth)
	}
	*nodes++
	if *nodes > maxPlanNodes {
		return nil, fmt.Errorf("control: plan larger than %d nodes", maxPlanNodes)
	}
	switch s.Kind {
	case "loss":
		if err := checkProb("p", s.P); err != nil {
			return nil, err
		}
		return fault.Loss{P: s.P}, nil
	case "corrupt":
		if err := checkProb("p", s.P); err != nil {
			return nil, err
		}
		return fault.Corrupt{P: s.P}, nil
	case "duplicate":
		if err := checkProb("p", s.P); err != nil {
			return nil, err
		}
		return fault.Duplicate{P: s.P}, nil
	case "gilbert-elliott":
		for _, pr := range []struct {
			name string
			v    float64
		}{
			{"p_good_bad", s.PGoodBad}, {"p_bad_good", s.PBadGood},
			{"loss_good", s.LossGood}, {"loss_bad", s.LossBad},
		} {
			if err := checkProb(pr.name, pr.v); err != nil {
				return nil, err
			}
		}
		return fault.NewGilbertElliott(s.PGoodBad, s.PBadGood, s.LossGood, s.LossBad)
	case "only":
		if s.Inner == nil {
			return nil, fmt.Errorf("control: only without inner plan")
		}
		if len(s.Frames) == 0 {
			return nil, fmt.Errorf("control: only without frames")
		}
		kinds := make([]dot11.FrameKind, 0, len(s.Frames))
		for _, name := range s.Frames {
			k, err := frameKind(name)
			if err != nil {
				return nil, err
			}
			kinds = append(kinds, k)
		}
		inner, err := s.Inner.build(depth+1, nodes)
		if err != nil {
			return nil, err
		}
		return fault.Only(inner, kinds...), nil
	case "to":
		if s.Inner == nil {
			return nil, fmt.Errorf("control: to without inner plan")
		}
		mac, err := dot11.ParseMAC(s.To)
		if err != nil {
			return nil, err
		}
		inner, err := s.Inner.build(depth+1, nodes)
		if err != nil {
			return nil, err
		}
		return fault.To(mac, inner), nil
	case "window":
		if s.Inner == nil {
			return nil, fmt.Errorf("control: window without inner plan")
		}
		if s.FromMS < 0 || s.UntilMS < s.FromMS {
			return nil, fmt.Errorf("control: window [%d,%d) ms is empty or negative", s.FromMS, s.UntilMS)
		}
		inner, err := s.Inner.build(depth+1, nodes)
		if err != nil {
			return nil, err
		}
		return fault.Window{
			From:  time.Duration(s.FromMS) * time.Millisecond,
			To:    time.Duration(s.UntilMS) * time.Millisecond,
			Inner: inner,
		}, nil
	case "silence":
		mac, err := dot11.ParseMAC(s.To)
		if err != nil {
			return nil, err
		}
		if s.FromMS < 0 {
			return nil, fmt.Errorf("control: silence from_ms %d is negative", s.FromMS)
		}
		return fault.Silence(mac, time.Duration(s.FromMS)*time.Millisecond), nil
	case "compose":
		if len(s.Plans) == 0 {
			return nil, fmt.Errorf("control: compose without plans")
		}
		plans := make([]fault.Plan, 0, len(s.Plans))
		for i := range s.Plans {
			p, err := s.Plans[i].build(depth+1, nodes)
			if err != nil {
				return nil, err
			}
			plans = append(plans, p)
		}
		return fault.Compose(plans...), nil
	case "":
		return nil, fmt.Errorf("control: plan node missing kind")
	default:
		return nil, fmt.Errorf("control: unknown plan kind %q", s.Kind)
	}
}

// checkProb validates a probability field.
func checkProb(name string, p float64) error {
	// A NaN fails both comparisons' complements, so test the valid
	// range directly and reject everything else (including NaN).
	if p >= 0 && p <= 1 {
		return nil
	}
	return fmt.Errorf("control: %s=%v outside [0,1]", name, p)
}

// frameKind resolves a dot11.FrameKind String name.
func frameKind(name string) (dot11.FrameKind, error) {
	for k := dot11.KindBeacon; k <= dot11.KindReassocResponse; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("control: unknown frame kind %q", name)
}

// FaultRequest is the body of POST /v1/fault: either {"clear":true}
// to remove the installed plan, or a plan with the RNG seed its
// verdicts draw from.
type FaultRequest struct {
	Clear bool      `json:"clear,omitempty"`
	Seed  uint64    `json:"seed,omitempty"`
	Plan  *PlanSpec `json:"plan,omitempty"`
}

// Validate checks the request shape and compiles the plan (nil for a
// clear request).
func (r *FaultRequest) Validate() (fault.Plan, error) {
	if r.Clear {
		if r.Plan != nil {
			return nil, fmt.Errorf("control: clear request carries a plan")
		}
		return nil, nil
	}
	if r.Plan == nil {
		return nil, fmt.Errorf("control: fault request without plan (use {\"clear\":true} to remove)")
	}
	return r.Plan.Build()
}

// InjectRequest is the body of POST /v1/inject: enqueue count group
// frames addressed to a UDP port at the AP (count defaults to 1).
type InjectRequest struct {
	Port  uint16 `json:"port"`
	Count int    `json:"count,omitempty"`
}

// DecodeJSON strictly decodes one JSON value from data into v: an
// unknown object field is an error, and only whitespace may follow the
// value. The control plane reads request bodies with it and the daemon
// its config file.
func DecodeJSON(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}
