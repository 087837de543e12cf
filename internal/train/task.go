// Package train is the accuracy substrate of the VaLoRA reproduction.
// The paper fine-tunes LoRA adapters for real LMMs on real vision
// datasets; offline that is replaced by a real — if small —
// supervised-learning pipeline: a frozen random-feature "base model",
// trainable low-rank (B·A) adapters with per-domain task heads, and
// SGD on synthetic Gaussian-cluster domain datasets.
//
// What this preserves from the paper: adapter capacity is genuinely
// limited (rank r), sequential knowledge fusion genuinely interferes
// (catastrophic forgetting), and the degradation rate genuinely
// depends on the task type's dataset geometry — which is exactly the
// structure the accuracy-aware knowledge-fusion algorithm (§4.2.1)
// exploits. All accuracies in the experiments are measured, not
// scripted.
package train

// TaskType enumerates the five vision task families of the paper's
// evaluation (§6.1).
type TaskType uint8

const (
	ImageClassification TaskType = iota
	ObjectDetection
	VideoClassification
	VisualQA
	ImageCaptioning
	numTaskTypes
)

func (t TaskType) String() string {
	switch t {
	case ImageClassification:
		return "image-classification"
	case ObjectDetection:
		return "object-detection"
	case VideoClassification:
		return "video-classification"
	case VisualQA:
		return "visual-qa"
	case ImageCaptioning:
		return "image-captioning"
	default:
		return "unknown-task"
	}
}

// AllTaskTypes lists every task type.
func AllTaskTypes() []TaskType {
	return []TaskType{ImageClassification, ObjectDetection, VideoClassification, VisualQA, ImageCaptioning}
}

// Profile captures the dataset geometry and training hyperparameters
// of a task type. Geometry drives how much fused domains interfere:
// many classes drawn from a tight global distribution (video
// classification, mirroring UCF-101's 101 fine-grained actions)
// collide quickly in adapter weight space, while few well-separated
// classes (aerial image classification, mirroring AID) coexist.
type Profile struct {
	Task          TaskType
	Classes       int     // classes per domain
	InputDim      int     // raw input dimensionality
	Spread        float64 // std of class means per dimension
	Noise         float64 // within-class standard deviation per dimension
	TrainPerClass int
	TestPerClass  int
	Epochs        int
	LearningRate  float64
	Metric        string // reported metric name (accuracy proxy)
	// SmallHidden is the hidden width of this task's conventional
	// small-model baseline (YOLO-class detectors are strong; older
	// VQA/captioning models like OSCAR are weaker).
	SmallHidden int
	// SmallBytes is the small model's checkpoint size, driving the
	// swap-cost comparison of §3.1.
	SmallBytes int64
	// AnswerTokens is the LM-head answer length for this task (the
	// number of autoregressive rounds a language-modeling head needs,
	// Fig. 11/16); a vision task head needs exactly one.
	AnswerTokens int
	// DomainCorrelation blends every domain's class means with a
	// task-shared set under shuffled labels. Correlated domains — like
	// UCF-101's fine-grained action classes split across datasets —
	// interfere strongly when fused into one adapter, which is why
	// video classification forgets fastest in Fig. 5.
	DomainCorrelation float64
}

// ProfileFor returns the calibrated profile of a task type. Class
// separation (Spread·√(2·InputDim)/Noise) is tuned per task so that
// fine-tuned accuracies land in the bands the paper reports, and so
// that task types differ in how quickly fused domains interfere
// (video classification's many tightly-packed classes forget fastest,
// mirroring Fig. 5).
func ProfileFor(t TaskType) Profile {
	switch t {
	case ImageClassification:
		return Profile{Task: t, Classes: 6, InputDim: 24, Spread: 1.0, Noise: 1.30,
			TrainPerClass: 40, TestPerClass: 20, Epochs: 140, LearningRate: 0.40,
			Metric: "top-1", SmallHidden: 24, SmallBytes: 250 << 20, AnswerTokens: 4}
	case ObjectDetection:
		return Profile{Task: t, Classes: 5, InputDim: 24, Spread: 1.0, Noise: 1.70,
			TrainPerClass: 40, TestPerClass: 20, Epochs: 140, LearningRate: 0.40,
			Metric: "F1", SmallHidden: 96, SmallBytes: 300 << 20, AnswerTokens: 12,
			DomainCorrelation: 0.2}
	case VideoClassification:
		return Profile{Task: t, Classes: 12, InputDim: 24, Spread: 1.0, Noise: 1.55,
			TrainPerClass: 30, TestPerClass: 15, Epochs: 140, LearningRate: 0.40,
			Metric: "top-1", SmallHidden: 48, SmallBytes: 900 << 20, AnswerTokens: 5,
			DomainCorrelation: 0.55}
	case VisualQA:
		return Profile{Task: t, Classes: 10, InputDim: 24, Spread: 1.0, Noise: 2.15,
			TrainPerClass: 36, TestPerClass: 18, Epochs: 140, LearningRate: 0.40,
			Metric: "vqa-score", SmallHidden: 12, SmallBytes: 1400 << 20, AnswerTokens: 24}
	case ImageCaptioning:
		return Profile{Task: t, Classes: 12, InputDim: 24, Spread: 1.0, Noise: 2.25,
			TrainPerClass: 36, TestPerClass: 18, Epochs: 140, LearningRate: 0.40,
			Metric: "CIDEr-proxy", SmallHidden: 12, SmallBytes: 1400 << 20, AnswerTokens: 32}
	default:
		panic("train: unknown task type")
	}
}
