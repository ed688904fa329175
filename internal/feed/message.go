// Package feed implements the "high-speed social news feeding" substrate:
// the follower graph along which posts fan out, and per-user sliding feed
// windows whose recent messages sum to a time-decayed context vector.
package feed

import (
	"time"

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
