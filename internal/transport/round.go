package transport

// Pattern is how the messages of a round travel: an echo broadcast
// (every party to every other, digest-checked on a real mesh by
// EchoBroadcastCtx), point to point (Net.Send), or a chain hop (one
// party to the next).
type Pattern int

const (
	EchoBroadcast Pattern = iota
	PointToPoint
	ChainHop
)

// Round is one row of a protocol's round schedule: the round's tag and
// phase, how its messages travel, who sends them to whom (half-open
// ranges of party indices; no party sends to itself) and the bytes each
// is charged. A protocol declares its rows beside the call sites that
// send with them (internal/unlinksort, internal/core), and the cost
// model expands the same rows into its trace, so the two cannot
// disagree.
type Round struct {
	Tag      int
	Phase    string
	Pattern  Pattern
	From, To [2]int
	// Bytes is a message's charged size; a dot-product flow adds PerS
	// for each of the s matrix rows its sender draws.
	Bytes, PerS int
}

// Size is a message's charged size at matrix dimension s.
func (r Round) Size(s int) int { return r.Bytes + s*r.PerS }
