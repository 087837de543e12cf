package train

// HeadKind selects how an adapter emits answers at serving time
// (§4.2.2): through the base model's language-modeling head
// (autoregressive, one round per answer token) or through a trainable
// vision task head that predicts over a discrete candidate set in a
// single round.
type HeadKind uint8

const (
	// LMHead keeps the original language-modeling head: answers cost
	// the task's AnswerTokens decode rounds (plus the <EOS> token).
	LMHead HeadKind = iota
	// VisionHead is the vision task head: a linear layer over the
	// LMM's output features, trained as part of the LoRA adapter, that
	// answers in exactly one round. Only valid for tasks whose output
	// is a limited discrete set (counts, action classes, binary
	// queries).
	VisionHead
)

func (h HeadKind) String() string {
	if h == VisionHead {
		return "vision-task-head"
	}
	return "lm-head"
}

// DecodeRounds reports how many autoregressive decode rounds a task's
// answer needs under a head kind — the quantity Fig. 11 illustrates
// (action recognition: 5 rounds with the LM head, 1 with the vision
// task head).
func DecodeRounds(task TaskType, head HeadKind) int {
	if head == VisionHead {
		return 1
	}
	return ProfileFor(task).AnswerTokens + 1 // +1 for <EOS>
}

// SupportsVisionHead reports whether a task's outputs form the limited
// discrete candidate set the vision task head requires. Open-ended
// language tasks (captioning, free-form VQA) keep the LM head.
func SupportsVisionHead(task TaskType) bool {
	switch task {
	case ImageClassification, ObjectDetection, VideoClassification:
		return true
	default:
		return false
	}
}
