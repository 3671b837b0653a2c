package transport

import (
	"sync"

	"groupranking/internal/wirecodec"
)

// memJournal is an in-memory Journaler for recovering sessions under
// test: it rides out link outages, not a restart of its own process.
// Like the durable journal it refuses a send whose payload has no wire
// form. An encoded journal also replays each message from its encoding,
// as the durable journal does, rather than handing back the value it
// was given.
type memJournal struct {
	encoded bool
	mu      sync.Mutex
	sent    map[int][]JournalMsg
	recv    map[int][]JournalMsg
}

func newMemJournal() *memJournal {
	return &memJournal{sent: make(map[int][]JournalMsg), recv: make(map[int][]JournalMsg)}
}

// newEncodedJournal is newMemJournal keeping encodings.
func newEncodedJournal() *memJournal {
	j := newMemJournal()
	j.encoded = true
	return j
}

func (m *memJournal) LogSend(peer, round, bytes int, seq uint64, payload any) error {
	return m.log(m.sent, peer, JournalMsg{Round: round, Seq: seq, Bytes: bytes, Payload: payload}, true)
}

func (m *memJournal) LogRecv(peer, round, bytes int, seq uint64, payload any) error {
	return m.log(m.recv, peer, JournalMsg{Round: round, Seq: seq, Bytes: bytes, Payload: payload}, m.encoded)
}

func (m *memJournal) log(into map[int][]JournalMsg, peer int, msg JournalMsg, check bool) error {
	if check {
		data, err := wirecodec.Marshal(msg.Payload)
		if err != nil {
			return err
		}
		if m.encoded {
			msg.Payload = data
		}
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	into[peer] = append(into[peer], msg)
	return nil
}

func (m *memJournal) SentTo(peer int) ([]JournalMsg, error) { return m.replay(m.sent, peer) }

func (m *memJournal) RecvFrom(peer int) ([]JournalMsg, error) { return m.replay(m.recv, peer) }

func (m *memJournal) replay(from map[int][]JournalMsg, peer int) ([]JournalMsg, error) {
	m.mu.Lock()
	msgs := append([]JournalMsg(nil), from[peer]...)
	m.mu.Unlock()
	if !m.encoded {
		return msgs, nil
	}
	for i := range msgs {
		v, err := wirecodec.Unmarshal(msgs[i].Payload.([]byte))
		if err != nil {
			return nil, err
		}
		msgs[i].Payload = v
	}
	return msgs, nil
}
