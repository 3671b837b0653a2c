package core

import (
	"context"
	"fmt"
	"math/big"
	"testing"
	"time"

	"groupranking/internal/dotprod"
	"groupranking/internal/fixedbig"
	"groupranking/internal/transport"
)

// These tests pin down the framework's behaviour against malformed
// messages: every protocol role must reject garbage with a descriptive
// error instead of panicking or deadlocking (the fabric timeout converts
// the resulting stalls of other parties into clean errors).

func TestInitiatorRejectsMalformedGainFlow(t *testing.T) {
	params := smallParams(t, 2)
	q := testInputs(t, params, "mal-flow").Questionnaire
	crit := testInputs(t, params, "mal-flow").Criterion
	fab, err := transport.New(params.N+1, transport.WithRecvTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		rng := fixedbig.NewDRBG("mal-flow-init")
		_, _, err := runInitiator(context.Background(), params, q, crit, fab, rng)
		done <- err
	}()
	// Participant 1 sends garbage instead of a dot-product flow;
	// participant 2 sends nothing (timeout covers it).
	if err := fab.Send(roundGainRequest, 1, 0, 4, "garbage"); err != nil {
		t.Fatal(err)
	}
	if err := fab.Send(roundGainRequest, 2, 0, 4, 42); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("initiator accepted a malformed gain flow")
	}
}

func TestParticipantRejectsMalformedGainReply(t *testing.T) {
	params := smallParams(t, 2)
	in := testInputs(t, params, "mal-reply")
	fab, err := transport.New(params.N+1, transport.WithRecvTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		rng := fixedbig.NewDRBG("mal-reply-part")
		_, err := runParticipant(context.Background(), params, 1, in.Questionnaire, in.Profiles[0], fab, rng)
		done <- err
	}()
	// Play a fake initiator: absorb the flow, answer with garbage.
	if _, err := fab.RecvCtx(context.Background(), 0, 1, -1); err != nil {
		t.Fatal(err)
	}
	if err := fab.Send(roundGainReply, 0, 1, 4, "not a reply"); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err == nil {
		t.Fatal("participant accepted a malformed gain reply")
	}
}

func TestInitiatorRejectsMalformedSubmission(t *testing.T) {
	params := smallParams(t, 2)
	in := testInputs(t, params, "mal-sub")
	prime, err := params.fieldPrime()
	if err != nil {
		t.Fatal(err)
	}
	dp := dotprod.DefaultSRange(prime)
	fab, errs, err := transport.RunMesh(context.Background(), params.N+1, nil, func(ctx context.Context, j int, fab transport.Net) error {
		if j == 0 {
			rng := fixedbig.NewDRBG("mal-sub-init")
			_, _, err := runInitiator(ctx, params, in.Questionnaire, in.Criterion, fab, rng)
			return err
		}
		rng := fixedbig.NewDRBG(fmt.Sprintf("mal-sub-%d", j))
		w, err := in.Questionnaire.ParticipantVector(in.Profiles[j-1])
		if err != nil {
			t.Error(err)
			return nil
		}
		bob, flow, err := dotprod.NewBob(dp, w, rng)
		if err != nil {
			t.Error(err)
			return nil
		}
		if err := fab.Send(roundGainRequest, j, 0, 8, flow); err != nil {
			t.Error(err)
			return nil
		}
		payload, err := fab.RecvCtx(ctx, j, 0, -1)
		if err != nil {
			t.Error(err)
			return nil
		}
		if _, err := bob.Finish(payload.(*dotprod.AliceReply)); err != nil {
			t.Error(err)
			return nil
		}
		if err := fab.Send(roundSubmission, j, 0, 4, big.NewInt(99)); err != nil {
			t.Error(err)
		}
		return nil
	}, transport.WithRecvTimeout(3*time.Second))
	if fab == nil {
		t.Fatal(err)
	}
	if errs[0] == nil {
		t.Fatal("initiator accepted a malformed submission")
	}
}

func TestInitiatorRejectsSubmissionWithWrongDimensions(t *testing.T) {
	params := smallParams(t, 2)
	in := testInputs(t, params, "mal-dim")
	prime, err := params.fieldPrime()
	if err != nil {
		t.Fatal(err)
	}
	dp := dotprod.DefaultSRange(prime)
	fab, errs, err := transport.RunMesh(context.Background(), params.N+1, nil, func(ctx context.Context, j int, fab transport.Net) error {
		if j == 0 {
			rng := fixedbig.NewDRBG("mal-dim-init")
			_, _, err := runInitiator(ctx, params, in.Questionnaire, in.Criterion, fab, rng)
			return err
		}
		rng := fixedbig.NewDRBG(fmt.Sprintf("mal-dim-%d", j))
		w, err := in.Questionnaire.ParticipantVector(in.Profiles[j-1])
		if err != nil {
			t.Error(err)
			return nil
		}
		bob, flow, err := dotprod.NewBob(dp, w, rng)
		if err != nil {
			t.Error(err)
			return nil
		}
		if err := fab.Send(roundGainRequest, j, 0, 8, flow); err != nil {
			t.Error(err)
			return nil
		}
		payload, err := fab.RecvCtx(ctx, j, 0, -1)
		if err != nil {
			t.Error(err)
			return nil
		}
		if _, err := bob.Finish(payload.(*dotprod.AliceReply)); err != nil {
			t.Error(err)
			return nil
		}
		// A submission whose profile has the wrong dimension must be
		// rejected when the initiator recomputes the gain.
		msg := submissionMsg{Rank: 1, Values: []int64{1}}
		if err := fab.Send(roundSubmission, j, 0, 16, msg); err != nil {
			t.Error(err)
		}
		return nil
	}, transport.WithRecvTimeout(3*time.Second))
	if fab == nil {
		t.Fatal(err)
	}
	if errs[0] == nil {
		t.Fatal("initiator accepted a submission with wrong dimensions")
	}
}

func TestRunParticipantIndexValidation(t *testing.T) {
	params := smallParams(t, 2)
	in := testInputs(t, params, "idx")
	fab, err := transport.New(params.N + 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := fixedbig.NewDRBG("idx")
	if _, err := runParticipant(context.Background(), params, 0, in.Questionnaire, in.Profiles[0], fab, rng); err == nil {
		t.Error("participant index 0 (the initiator) accepted")
	}
	if _, err := runParticipant(context.Background(), params, params.N+1, in.Questionnaire, in.Profiles[0], fab, rng); err == nil {
		t.Error("out-of-range participant index accepted")
	}
}
