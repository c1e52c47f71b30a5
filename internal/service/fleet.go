package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

	"netart/internal/obs"
	"netart/internal/store/cluster"
)

// This file is the service's fleet wiring (DESIGN §5f, §5g): building
// the fleet view, the proxy hop to a key's owner, the peer-hop marker
// and the fleet section of /v1/healthz and /v1/stats. Outside a fleet
// (no Peers) s.fleet is nil and none of it acts.

// newFleet builds the fleet view from the config, nil without peers,
// and registers its events and breaker states in the metric set m.
func newFleet(cfg Config, m *obs.Pipeline) (*cluster.Fleet, error) {
	if len(cfg.Peers) == 0 {
		return nil, nil
	}
	copts := cluster.Options{
		Timeout:          cfg.PeerTimeout,
		MaxResponseBytes: cfg.MaxBodyBytes,
		HedgeAfter:       cfg.ProxyHedgeAfter,
		OnEvent: func(ev string) {
			switch ev {
			case cluster.EventProxyRetry:
				m.ProxyRetries.Inc()
			case cluster.EventHedgeLaunched:
				m.HedgeLaunched.Inc()
			case cluster.EventHedgeWon:
				m.HedgeWon.Inc()
			}
		},
		// Breakers are always on for a fleet; PeerProbeInterval 0
		// (a negative config value) merely disables the prober.
		Probe: &cluster.HealthOptions{
			ProbeInterval: cfg.PeerProbeInterval,
			FailThreshold: cfg.PeerFailThreshold,
			OnTransition: func(peer string, from, to cluster.State) {
				switch to {
				case cluster.StateOpen:
					m.PeerOpened.Inc()
				case cluster.StateHalfOpen:
					m.PeerHalfOpened.Inc()
				default:
					m.PeerClosed.Inc()
				}
			},
		},
	}
	if cfg.PeerFaults != nil {
		copts.Transport = &cluster.FaultTransport{Plan: cfg.PeerFaults}
	}
	fleet, err := cluster.New(cfg.SelfURL, cfg.Peers, copts)
	if err != nil {
		return nil, err
	}
	// One breaker-state gauge per fleet peer, sampled at scrape time:
	// 1 closed (live), 0.5 half-open (probing), 0 open (down).
	if fleet.Enabled() {
		for _, ps := range fleet.PeerStates() {
			peer := ps.URL
			m.Reg.GaugeFunc("netart_peer_state",
				"Per-peer circuit-breaker state: 1 closed (live), 0.5 half-open (probing), 0 open (down).",
				`peer="`+peer+`"`,
				func() float64 { return fleet.StateOf(peer).GaugeValue() })
		}
	}
	return fleet, nil
}

// Fleet exposes the live fleet view (nil outside a fleet); benches
// and tests read ownership and breaker states through it.
func (s *Server) Fleet() *cluster.Fleet { return s.fleet }

// fleetHealth snapshots the fleet section of /v1/healthz and
// /v1/stats; nil when this daemon is not part of a fleet.
func (s *Server) fleetHealth() *FleetHealth {
	if !s.fleet.Enabled() {
		return nil
	}
	fh := &FleetHealth{Self: s.fleet.Self()}
	for _, ps := range s.fleet.PeerStates() {
		live := ps.State == cluster.StateClosed
		fh.Peers = append(fh.Peers, PeerHealth{
			URL:   ps.URL,
			State: ps.State.String(),
			Live:  live,
		})
		if !live {
			fh.Down++
		}
	}
	return fh
}

// peerHopKey marks a request context as already forwarded once by a
// peer.
type peerHopKey struct{}

// hopContext is the context a handler runs its request under, marked
// when the request carries cluster.HopHeader: a peer forwarded it
// here, so the fleet layer computes locally instead of forwarding
// again. Async jobs keep the mark on their detached context.
func hopContext(r *http.Request) context.Context {
	if r.Header.Get(cluster.HopHeader) == "" {
		return r.Context()
	}
	return context.WithValue(r.Context(), peerHopKey{}, true)
}

func peerHopped(ctx context.Context) bool {
	v, _ := ctx.Value(peerHopKey{}).(bool)
	return v
}

// fetchFromOwner resolves a cold key through the fleet: when a peer
// owns the key, the request is proxied there (single hop). handled is
// false when the key is this replica's, when the request already took
// its hop, and when the owner is unreachable: the caller then computes
// locally, so the fleet degrades to independent replicas rather than
// failing.
func (s *Server) fetchFromOwner(ctx context.Context, o *obs.Observer, req *Request, key cacheKey) (*ResponseV2, error, bool) {
	if !s.fleet.Enabled() || s.cache.faultsArmed() {
		return nil, nil, false
	}
	if peerHopped(ctx) {
		// A peer already forwarded this request here: compute locally
		// no matter who the hash says owns it, so a stale or
		// disagreeing peer list cannot bounce a request around.
		s.obs.PeerReceived.Inc()
		return nil, nil, false
	}
	// The single Owner call is the routing decision: ownership is
	// live-set dependent, so recomputing it (as OwnedBySelf would)
	// could race a breaker transition and disagree with the owner
	// actually proxied to.
	owner := s.fleet.Owner(key.String())
	if owner == s.fleet.Self() {
		s.obs.PeerSelf.Inc()
		return nil, nil, false
	}
	if resp, err, handled := s.proxyToOwner(ctx, o, key.String(), owner, req); handled {
		return resp, err, true
	}
	s.obs.PeerFallback.Inc()
	return nil, nil, false
}

// proxyToOwner forwards the request to the key's owner and serves its
// answer verbatim. handled=false means transport-level failure (the
// caller falls back to local compute); an owner-side 4xx is handled —
// it is the request's own verdict, reached faster elsewhere.
func (s *Server) proxyToOwner(ctx context.Context, o *obs.Observer, key, owner string, req *Request) (*ResponseV2, error, bool) {
	psp := o.StartSpan("peer")
	psp.SetAttr("owner_len", int64(len(owner))) // attr values are int64; the URL itself rides on the log
	body, err := json.Marshal(req)
	if err != nil {
		psp.EndError(err)
		return nil, err, true
	}
	out, status, err := s.fleet.Proxy(ctx, key, owner, body)
	if err != nil {
		psp.EndError(err)
		if ctx.Err() != nil {
			// The request deadline expired mid-proxy: surface it
			// rather than burning the remaining budget locally.
			return nil, &svcError{status: 504, msg: ctx.Err().Error(), cause: ctx.Err()}, true
		}
		return nil, nil, false
	}
	if status != 200 {
		var ep ErrorResponse
		msg := fmt.Sprintf("owner %s answered %d", owner, status)
		if jerr := json.Unmarshal(out, &ep); jerr == nil && ep.Error != "" {
			msg = ep.Error
		}
		psp.End()
		s.obs.PeerProxied.Inc()
		return nil, &svcError{status: status, msg: msg}, true
	}
	var resp ResponseV2
	if uerr := json.Unmarshal(out, &resp); uerr != nil {
		psp.EndError(uerr)
		return nil, nil, false
	}
	psp.End()
	s.obs.PeerProxied.Inc()
	return &resp, nil, true
}
