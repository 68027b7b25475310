(** Self-contained HTML trend report over a registry.

    One [asman report] page renders, for every run in the registry in
    date order: the run index (identity, config axes, wall time) and
    a trend chart per metric family — figure/ablation wall time,
    event-queue and PDES micro throughput, fairness
    attained/entitled ratios, and SimCheck health counts.

    The output is a single file with inline CSS, inline JS and inline
    SVG only: no external network or file references of any kind
    (no [<link>], no [src=], no [url(...)]), so the artifact can be
    archived or attached to CI and opened anywhere. *)

val report : Record.t list -> string
(** Deterministic: the same records (in any order — they are sorted
    by date then id) produce byte-identical HTML. *)

val validate_html : string -> (unit, string) result
(** Sanity checks for a self-contained HTML export: non-void tags
    must balance, and the document must carry no external references
    — no [http(s)://] or [file://] URLs, no [<link>], no [src=]
    attributes, no [@import]. Not a full HTML parser: it validates
    what {!report} emits. *)
