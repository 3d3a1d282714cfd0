//! The seeded presentation-document set of `presentation_verify`.
//!
//! Three families, each a structure the paper's DOCPN compiler handles:
//!
//! * `figure1` — the Figure-1 lecture: lip-synced video and narration,
//!   slides started with the video, a quiz after it, and a quiz-answer
//!   interaction window.
//! * `lipsync` — `k` lip-synced video+audio segments played back to back.
//!   The structural analysis grows steeply in `k` (the Farkas invariant
//!   table hits its 4096-row cap at `k = 7`), so the set carries every size
//!   up to the largest the run budget affords.
//! * `interactive` — a slide sequence with interaction windows, half of them
//!   answered by the user and half timing out.
//!
//! The seed varies durations and interaction times only. Every family keeps
//! its net structure under every seed, so two seeds cost the same to verify
//! and the recorded verdicts below hold for every document by construction.

use std::time::Duration;

use dmps_docpn::{CompileOptions, InteractionBehavior, ModelKind};
use dmps_media::{MediaKind, MediaObject, PresentationDocument, TemporalRelation};

/// Verdicts a document must verify to. Presentation nets are acyclic: each
/// synchronization transition fires once and the run ends in the terminal
/// `done` marking, which the analysis reports as a deadlock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Verdicts {
    /// The net is bounded.
    pub bounded: bool,
    /// The net is 1-safe.
    pub safe: bool,
    /// Some reachable marking is dead (the terminal one).
    pub has_deadlock: bool,
    /// Transitions that can never fire: the user transition of every
    /// interaction window that times out has no user token.
    pub dead_transitions: usize,
    /// `verify_presentation` accepts it (sync points fire once, the nominal
    /// run reproduces the timeline and reaches `done`).
    pub valid: bool,
    /// The timed run completes with no stall at any synchronization point.
    pub on_schedule: bool,
}

/// The verdicts of a presentation with `timeouts` unanswered interaction
/// windows.
fn presentation(timeouts: usize) -> Verdicts {
    Verdicts {
        bounded: true,
        safe: true,
        has_deadlock: true,
        dead_transitions: timeouts,
        valid: true,
        on_schedule: true,
    }
}

/// One document with the options it compiles under and its recorded
/// verdicts.
pub struct Doc {
    /// `figure1`, `lipsync` or `interactive`.
    pub family: &'static str,
    /// Segments (lipsync) or slides (interactive); 1 for figure1.
    pub size: usize,
    /// The document.
    pub doc: PresentationDocument,
    /// DOCPN compile options (interaction behaviours).
    pub options: CompileOptions,
    /// What verification must report.
    pub expect: Verdicts,
}

/// Small deterministic generator (SplitMix64), so the set depends on the
/// seed alone.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform whole seconds in `lo..=hi`.
    fn secs(&mut self, lo: u64, hi: u64) -> Duration {
        Duration::from_secs(lo + self.next() % (hi - lo + 1))
    }
}

fn object(
    doc: &mut PresentationDocument,
    name: String,
    kind: MediaKind,
    d: Duration,
) -> dmps_media::MediaId {
    doc.add_object(MediaObject::new(name, kind, d))
}

fn figure1(rng: &mut Rng, i: usize) -> Doc {
    let mut doc = PresentationDocument::new(format!("figure1-{i}"));
    let talk = rng.secs(30, 60);
    let slides = talk - rng.secs(5, 20);
    let quiz = rng.secs(10, 20);
    let video = object(&mut doc, "lecture-video".into(), MediaKind::Video, talk);
    let narration = object(&mut doc, "narration".into(), MediaKind::Audio, talk);
    let slide = object(&mut doc, "slides".into(), MediaKind::Slide, slides);
    let q = object(&mut doc, "quiz".into(), MediaKind::Text, quiz);
    doc.relate(video, TemporalRelation::Equals, narration)
        .expect("distinct objects");
    doc.relate(video, TemporalRelation::StartedBy, slide)
        .expect("distinct objects");
    doc.relate(video, TemporalRelation::Meets, q)
        .expect("distinct objects");
    let open = talk + Duration::from_secs(2);
    doc.add_interaction("quiz-answers", open, quiz - Duration::from_secs(4));
    let times_out = i.is_multiple_of(2);
    let behavior = if times_out {
        InteractionBehavior::TimesOut
    } else {
        InteractionBehavior::ActedAt(open + Duration::from_secs(1))
    };
    Doc {
        family: "figure1",
        size: 1,
        doc,
        options: CompileOptions::new(ModelKind::Docpn).with_interaction("quiz-answers", behavior),
        expect: presentation(usize::from(times_out)),
    }
}

fn lipsync(rng: &mut Rng, k: usize, i: usize) -> Doc {
    let mut doc = PresentationDocument::new(format!("lipsync-{k}-{i}"));
    let mut prev = None;
    for s in 0..k {
        let d = rng.secs(3, 12);
        let v = object(&mut doc, format!("video-{s}"), MediaKind::Video, d);
        let a = object(&mut doc, format!("audio-{s}"), MediaKind::Audio, d);
        doc.relate(v, TemporalRelation::Equals, a)
            .expect("distinct objects");
        if let Some(p) = prev {
            doc.relate(p, TemporalRelation::Meets, v)
                .expect("distinct objects");
        }
        prev = Some(v);
    }
    Doc {
        family: "lipsync",
        size: k,
        doc,
        options: CompileOptions::new(ModelKind::Docpn),
        expect: presentation(0),
    }
}

fn interactive(rng: &mut Rng, k: usize, i: usize) -> Doc {
    let mut doc = PresentationDocument::new(format!("interactive-{k}-{i}"));
    let mut options = CompileOptions::new(ModelKind::Docpn);
    let mut prev = None;
    let mut at = Duration::ZERO;
    let mut timeouts = 0;
    for s in 0..k {
        let d = rng.secs(8, 20);
        let slide = object(&mut doc, format!("slide-{s}"), MediaKind::Slide, d);
        if let Some(p) = prev {
            doc.relate(p, TemporalRelation::Meets, slide)
                .expect("distinct objects");
        }
        prev = Some(slide);
        // One question window inside every other slide.
        if s % 2 == 0 {
            let label = format!("question-{s}");
            let open = at + Duration::from_secs(2);
            doc.add_interaction(label.clone(), open, Duration::from_secs(4));
            let behavior = if (s / 2 + i).is_multiple_of(2) {
                InteractionBehavior::ActedAt(open + Duration::from_secs(1))
            } else {
                timeouts += 1;
                InteractionBehavior::TimesOut
            };
            options = options.with_interaction(label, behavior);
        }
        at += d;
    }
    Doc {
        family: "interactive",
        size: k,
        doc,
        options,
        expect: presentation(timeouts),
    }
}

/// The fixed-composition document set for `seed`. `max_lipsync` is the
/// largest lip-sync size included (the full benchmark uses 7).
pub fn document_set(seed: u64, max_lipsync: usize) -> Vec<Doc> {
    let mut rng = Rng(seed ^ 0x00D0_C5E7);
    let mut docs = Vec::new();
    for i in 0..4 {
        docs.push(figure1(&mut rng, i));
    }
    for k in 1..=max_lipsync {
        // Three of each size up to 6 segments; the capped size once.
        let copies = if k <= 6 { 3 } else { 1 };
        for i in 0..copies {
            docs.push(lipsync(&mut rng, k, i));
        }
    }
    for k in [2usize, 4, 6] {
        for i in 0..2 {
            docs.push(interactive(&mut rng, k, i));
        }
    }
    docs
}
