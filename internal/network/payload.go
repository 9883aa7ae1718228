package network

import "april/internal/directory"

// PayloadKind discriminates the Payload union.
type PayloadKind uint8

const (
	// PayloadNone marks a message with no payload (pure traffic, as in
	// the latency/load experiments).
	PayloadNone PayloadKind = iota
	// PayloadCoherence carries a cache-coherence protocol message.
	PayloadCoherence
	// PayloadIPI carries an interprocessor-interrupt vector word.
	PayloadIPI
	// PayloadRaw carries an uninterpreted word (tests, diagnostics).
	PayloadRaw

	// payloadPoisoned is stamped on recycled messages in poison mode;
	// it is never a legal kind for a live message, so any consumer that
	// reads a message past its recycle point sees an impossible value.
	payloadPoisoned PayloadKind = 0xff
)

// Payload is the concrete tagged union a Message carries. Keeping the
// variants as inline fields (rather than an interface{}) means Send
// never boxes a payload on the heap: the whole union travels by value
// inside the pooled Message.
type Payload struct {
	Kind PayloadKind
	Coh  directory.Msg // valid when Kind == PayloadCoherence
	Word uint64        // valid when Kind == PayloadIPI or PayloadRaw
}

// CoherencePayload wraps a directory protocol message.
func CoherencePayload(m directory.Msg) Payload {
	return Payload{Kind: PayloadCoherence, Coh: m}
}

// RawPayload wraps an uninterpreted word.
func RawPayload(w uint64) Payload {
	return Payload{Kind: PayloadRaw, Word: w}
}
