open Asman

type failure_report = {
  fr_index : int;
  fr_seed : int64;
  fr_spec : Spec.t;
  fr_failures : Oracle.failure list;
  fr_shrunk : Spec.t;
  fr_shrunk_failures : Oracle.failure list;
}

type timeout_report = { tr_index : int; tr_seed : int64; tr_limit_sec : float }

type report = {
  cases : int;  (** cases whose verdict is in — [cases] requested, fewer on abort *)
  failures : failure_report list;
  timeouts : timeout_report list;
}

let passed r = r.failures = [] && r.timeouts = []

let run ?jobs ?timeout_sec ?(shrink_budget = 200) ~cases ~seed () =
  let indices = List.init cases (fun i -> i) in
  let run_index i =
    let case_seed = Gen.case_seed ~seed ~index:i in
    let spec = Gen.spec case_seed in
    (i, case_seed, spec, Case.run spec)
  in
  match Pool.map ?jobs ?timeout_sec run_index indices with
  | exception Pool.Job_timeout { index; limit_sec; _ } ->
    (* A hung case must surface with its seed, not vanish: the pool
       aborts the whole map, so this timeout is the run's verdict. *)
    {
      cases = index;
      failures = [];
      timeouts =
        [
          {
            tr_index = index;
            tr_seed = Gen.case_seed ~seed ~index;
            tr_limit_sec = limit_sec;
          };
        ];
    }
  | results ->
    let failing =
      List.filter (fun (_, _, _, failures) -> failures <> []) results
    in
    let failures =
      List.map
        (fun (i, case_seed, spec, fs) ->
          let shrunk, shrunk_fs =
            Shrink.minimize ~budget:shrink_budget ~fails:Case.run spec
              ~initial_failures:fs
          in
          {
            fr_index = i;
            fr_seed = case_seed;
            fr_spec = spec;
            fr_failures = fs;
            fr_shrunk = shrunk;
            fr_shrunk_failures = shrunk_fs;
          })
        failing
    in
    { cases; failures; timeouts = [] }

let failure_summary fr =
  let head = function
    | { Oracle.oracle; message } :: _ -> Printf.sprintf "%s: %s" oracle message
    | [] -> "(no failure?)"
  in
  Printf.sprintf
    "case %d (seed %Ld)\n  failed:  %s\n  shrunk:  %d VM(s), %d vcpu(s) max, \
     horizon %.3fs\n  still:   %s"
    fr.fr_index fr.fr_seed (head fr.fr_failures)
    (List.length fr.fr_shrunk.Spec.vms)
    (List.fold_left
       (fun m (v : Scenario.vm_desc) -> max m v.vd_vcpus)
       0 fr.fr_shrunk.Spec.vms)
    fr.fr_shrunk.Spec.horizon_sec
    (head fr.fr_shrunk_failures)

let repro_filename fr =
  let oracle =
    match fr.fr_shrunk_failures with
    | { Oracle.oracle; _ } :: _ -> oracle
    | [] -> "unknown"
  in
  Printf.sprintf "repro-%s-case%d.json" oracle fr.fr_index

(* Each repro is stamped with where it came from — the check run's
   registry record (when recording was on) and the case seed that
   generated it — so a corpus file found months later still names the
   run that produced it. *)
let write_repros ?(dir = ".") ?record_id report =
  List.map
    (fun fr ->
      let path = Filename.concat dir (repro_filename fr) in
      let stamped =
        {
          fr.fr_shrunk with
          Spec.provenance =
            Some { Spec.pv_record = record_id; pv_seed = fr.fr_seed };
        }
      in
      Spec.save stamped path;
      path)
    report.failures

(* Fuzzer-health counters for the run registry's "check" section. *)
let summary_kv r =
  [
    ("cases", float_of_int r.cases);
    ("failures", float_of_int (List.length r.failures));
    ("timeouts", float_of_int (List.length r.timeouts));
    ( "shrunk",
      float_of_int
        (List.length
           (List.filter (fun fr -> fr.fr_shrunk_failures <> []) r.failures)) );
  ]
