// Package feed stands in for the module's feed: the analyzer knows a
// message ID by its type's name and package name.
package feed

// MessageID identifies a message.
type MessageID int64
