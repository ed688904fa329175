// Package feed implements the "high-speed social news feeding" substrate:
// the follower graph along which posts fan out, and per-user sliding feed
// windows whose recent posts sum to a time-decayed context vector.
package feed

import (
	"sync/atomic"
	"time"

	"caar/internal/index"
	"caar/internal/textproc"
)

// UserID identifies a user internally. The public facade maps external
// handles to dense UserIDs.
type UserID uint32

// MessageID identifies a message.
type MessageID int64

// Message is one social post after semantic processing: the author, the
// TF-IDF term vector of the text, and the post time. Location reaches the
// engine through check-ins, not through posts.
type Message struct {
	ID     MessageID
	Author UserID
	Time   time.Time
	Vec    textproc.SparseVector
}

// Post is the one record of a message, made when it is published and shared
// by pointer from then on: by every window it reaches, by the evictions a
// candidate buffer owes, and by the catch-ups that merge it. The message
// never changes. Deltas and Shared are the ad side's (core.AdIndex): the
// post's delta list, and its reference count and the list's phase in one
// atomic word.
type Post struct {
	Message
	Deltas []index.Delta
	Shared atomic.Uint64
}
