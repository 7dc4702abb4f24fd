// Package cluster is the horizontal sharding layer in front of a fleet of
// uniqd nodes: a consistent-hash ring that assigns every user-keyed route
// to an owning backend, a node registry with active health probes and
// per-node circuit breaking, and an HTTP gateway (cmd/uniqgw) that
// forwards request and response bodies as bytes — it parses only a
// submit's top-level user, job IDs and the profile-list fan-out — and
// relays the full-duplex streaming routes verbatim.
//
// Sharding model: the ring hashes user identifiers (FNV-1a 64 over
// "node#vnode" points and user keys), so a user's sessions, jobs,
// profiles, AoA queries and streams all land on the same node, and node
// join/leave moves only the neighbouring arcs (~1/N of the keyspace).
// Profiles are not replicated by the gateway — a node owns its shard's
// store — but reads can fall back to ring successors, which serves stale
// copies left behind by a rebalance instead of erroring while the owner
// is down.
//
// Backpressure is propagated, never absorbed: a backend's 503 +
// Retry-After travels through the gateway unchanged, so callers see the
// same load-shedding contract with one node or fifty.
package cluster
