package phantom

import (
	"time"
)

// EventKind identifies a phantom-queue event for observability hooks.
type EventKind int

const (
	// eventAccept: a packet was admitted and its phantom copy enqueued.
	eventAccept EventKind = iota
	// EventDrop: a packet was rejected (full queue, RED, or filter).
	EventDrop
	// EventMark: a packet was admitted with an ECN CE mark.
	EventMark
	// EventMagicFill: burst control filled the queue with magic bytes.
	EventMagicFill
	// EventMagicReclaim: burst control reclaimed remaining magic bytes.
	EventMagicReclaim
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case eventAccept:
		return "accept"
	case EventDrop:
		return "drop"
	case EventMark:
		return "mark"
	case EventMagicFill:
		return "magic-fill"
	case EventMagicReclaim:
		return "magic-reclaim"
	default:
		return "unknown"
	}
}

// DropReason distinguishes why a phantom queue rejected a packet. It is
// DropNone on every non-drop event.
type DropReason int

const (
	// DropNone: the event is not a drop.
	DropNone DropReason = iota
	// DropFilter: rejected by the access-control arrival filter (§3.3).
	DropFilter
	// DropRED: dropped by RED early detection on the averaged simulated
	// occupancy (and the packet was not ECN-capable or marking is off).
	DropRED
	// DropQueueFull: drop-tail — the phantom copy did not fit in the
	// simulated buffer.
	DropQueueFull
)

// String names the drop reason.
func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "none"
	case DropFilter:
		return "filter"
	case DropRED:
		return "red"
	case DropQueueFull:
		return "queue-full"
	default:
		return "unknown"
	}
}

// Event is one observable phantom-queue transition. Emitted synchronously
// from Submit/Tick; handlers must be fast and must not call back into the
// enforcer.
type Event struct {
	Time  time.Duration
	Class int
	Kind  EventKind
	// Bytes is the packet size (accept/drop/mark) or the magic byte
	// count (fill/reclaim).
	Bytes int64
	// QueueLen is the queue's simulated occupancy after the event.
	QueueLen int64
	// Reason qualifies EventDrop (filter, RED, or full queue); DropNone
	// otherwise.
	Reason DropReason
}
