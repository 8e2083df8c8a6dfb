(* Benchmark runner: runs one workload from the outside, through the
   library's public functions and the service's TCP protocol, and prints
   the raw samples as one JSON object on its last stdout line.
   perfbench/run.py turns the samples into metrics.

   pbench.exe WORKLOAD --seed N --seconds S [--trace] [--setup-only]
              --ptranc PATH --work DIR

   Workloads (all closed loops with one client):
     table1    the `estimate` library path on LOOPS (5 profiled runs) then
               SIMPLE (1 run), both at their Table-1 sizes, as one request
     wide-cfg  the same path on a generated 1000-node single-procedure CFG
     serve     one job (Figure 1 program, 10 runs) submitted to
               `ptranc serve --tcp` and polled until done

   Without --trace it measures the end-to-end request loop.  With --trace
   it replays the workload's programs as a chain of the public calls of
   each layer, each wrapped in a span (monotonic clock + Gc word deltas),
   and serves them through the server once more to time the RPC phases,
   the frame codecs and the store's restart. *)

module Pipeline = S89_core.Pipeline
module Report = S89_core.Report
module Program = S89_frontend.Program
module Interp = S89_vm.Interp
module Cost_model = S89_vm.Cost_model
module Placement = S89_profiling.Placement
module Reconstruct = S89_profiling.Reconstruct
module Database = S89_profiling.Database
module Analysis = S89_profiling.Analysis
module Proto = S89_net.Proto
module Client = S89_net.Server.Client

(* ---------------- clocks and spans ---------------- *)

let now () = Monotonic_clock.now ()
let since t0 = Int64.to_float (Int64.sub (now ()) t0) *. 1e-9

let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* One request's per-layer sums, keyed by metric name. *)
type acc = (string, float) Hashtbl.t

let add (acc : acc) k v =
  Hashtbl.replace acc k (v +. Option.value ~default:0.0 (Hashtbl.find_opt acc k))

(* [span acc ~time ?words f] runs [f], adding its wall time (s) to
   [time] and its allocation (millions of words) to [words].  Every span
   also feeds "spans_s", the numerator of trace coverage. *)
let span acc ~time ?words f =
  let w0 = alloc_words () in
  let t0 = now () in
  let r = f () in
  let dt = since t0 in
  let dw = alloc_words () -. w0 in
  add acc time dt;
  add acc "spans_s" dt;
  Option.iter (fun k -> add acc k (dw /. 1e6)) words;
  r

(* ---------------- workloads ---------------- *)

type program = { source : string; runs : int }

let programs = function
  | "table1" ->
      [ { source = S89_workloads.Livermore.source; runs = 5 };
        { source = S89_workloads.Simple_code.source (); runs = 1 } ]
  | "wide-cfg" ->
      [ { source = S89_testgen.Gen_prog.gen_wide_cfg_source ~nodes:1000 ();
          runs = 1 } ]
  | "serve" -> [ { source = S89_workloads.Demos.fig1 (); runs = 10 } ]
  | w -> invalid_arg ("unknown workload " ^ w)

(* ---------------- the library path ---------------- *)

(* `ptranc estimate` with library defaults: the Figure-3 report and the
   instrumented cycles per run. *)
let estimate ?backend ~seed p =
  let t = Pipeline.of_source p.source in
  let prof = Pipeline.profile_smart ?backend ~runs:p.runs ~seed t in
  let est = Pipeline.estimate_profiled t prof in
  (Format.asprintf "%a@." Report.pp est, prof.Pipeline.avg_cycles)

(* The same request as a chain of each layer's public calls, split the
   way Pipeline.profile_smart composes them. *)
let estimate_traced acc ~seed p =
  let prog =
    span acc ~time:"frontend.busy_s" ~words:"frontend.alloc_mwords" (fun () ->
        Program.of_source p.source)
  in
  List.iter
    (fun (pr : Program.proc) ->
      add acc "frontend.cfg_nodes" (float (S89_cfg.Cfg.num_nodes pr.Program.cfg)))
    (Program.procs prog);
  let t =
    span acc ~time:"analysis.busy_s" ~words:"analysis.alloc_mwords" (fun () ->
        Pipeline.create prog)
  in
  Hashtbl.iter
    (fun _ (a : Analysis.t) ->
      add acc "analysis.ecfg_nodes"
        (float (S89_cfg.Cfg.num_nodes (S89_cfg.Ecfg.cfg a.Analysis.ecfg))))
    t.Pipeline.analyses;
  let plan =
    span acc ~time:"placement.busy_s" ~words:"placement.alloc_mwords" (fun () ->
        Placement.plan ~second_moments:true t.Pipeline.analyses)
  in
  add acc "placement.counters" (float (Placement.n_counters plan));
  let sums = Array.make (Placement.n_counters plan) 0 in
  let cycles = ref 0 in
  for r = 0 to p.runs - 1 do
    let config =
      { Interp.default_config with
        cost_model = Cost_model.optimized; instr = Placement.probes plan;
        seed = seed + r }
    in
    let vm =
      span acc ~time:"vm.compile_s" ~words:"vm.alloc_mwords" (fun () ->
          Interp.create ~config t.Pipeline.prog)
    in
    ignore
      (span acc ~time:"vm.run_s" ~words:"vm.alloc_mwords" (fun () -> Interp.run vm));
    cycles := !cycles + Interp.cycles vm;
    let cs = Interp.counters vm in
    Array.iteri (fun i s -> sums.(i) <- s + cs.(i)) sums
  done;
  add acc "vm.sim_cycles" (float !cycles);
  let totals =
    span acc ~time:"reconstruct.busy_s" (fun () ->
        Reconstruct.totals plan ~counters:sums)
  in
  let database = Database.create () in
  Database.accumulate database totals;
  database.Database.runs <- p.runs;
  let avg_cycles = float !cycles /. float p.runs in
  let prof =
    { Pipeline.plan; counters = sums; runs = p.runs; totals; database; avg_cycles }
  in
  let est =
    span acc ~time:"estimate.busy_s" ~words:"estimate.alloc_mwords" (fun () ->
        Pipeline.estimate_profiled t prof)
  in
  let report =
    span acc ~time:"report.busy_s" (fun () -> Format.asprintf "%a@." Report.pp est)
  in
  add acc "report.bytes" (float (String.length report));
  (report, avg_cycles)

(* The report the service stores for a job: its batches journal each
   run and estimate from the accumulated database (Service.batch). *)
let served_report ?backend ~seed p =
  let t = Pipeline.of_source p.source in
  let prof = Pipeline.profile_smart ?backend ~runs:p.runs ~seed t in
  let est = Pipeline.estimate_totals t ~totals:(Database.proc_totals prof.Pipeline.database) in
  Fmt.str "%a" Report.pp est

(* ---------------- outcomes ---------------- *)

type tally = {
  mutable attempted : int;
  mutable ok : int;
  mutable mismatch : int;
  mutable refused : int;
  mutable failed : int;
  mutable timed_out : int;
}

let tally () =
  { attempted = 0; ok = 0; mismatch = 0; refused = 0; failed = 0; timed_out = 0 }

(* Checks that fail outside the counted requests (reference, cycles). *)
let problems = ref []
let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt

(* ---------------- the server ---------------- *)

type server = { pid : int; port : int; out : Unix.file_descr }

let read_line_fd fd =
  let b = Buffer.create 64 and c = Bytes.create 1 in
  let rec go () =
    match Unix.read fd c 0 1 with
    | 0 -> None
    | _ when Bytes.get c 0 = '\n' -> Some (Buffer.contents b)
    | _ ->
        Buffer.add_char b (Bytes.get c 0);
        go ()
  in
  go ()

let start_server ~ptranc ~log ~retain store =
  let r, w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644
  in
  let args =
    [| ptranc; "serve"; "--tcp"; "0"; "--workers"; "1"; "--store-root"; store;
       "--retain-done=" ^ retain |]
  in
  let pid = Unix.create_process ptranc args Unix.stdin w err in
  Unix.close w;
  Unix.close err;
  let port =
    match read_line_fd r with
    | Some line -> (
        match String.rindex_opt line ':' with
        | Some i -> int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))
        | None -> None)
    | None -> None
  in
  match port with
  | Some port -> { pid; port; out = r }
  | None ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] pid);
      Unix.close r;
      failwith ("ptranc serve did not start; see " ^ log)

(* Peak resident set of a process, from /proc (MB). *)
let max_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
        Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> nan
  in
  go ()

(* Graceful stop (SIGTERM), escalating to SIGKILL after 20 s. *)
let stop_server s =
  Unix.kill s.pid Sys.sigterm;
  let buf = Bytes.create 4096 in
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec drain () =
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0.0 then Unix.kill s.pid Sys.sigkill
    else
      match Unix.select [ s.out ] [] [] left with
      | [], _, _ -> drain ()
      | _ -> if Unix.read s.out buf 0 4096 > 0 then drain ()
  in
  drain ();
  Unix.close s.out;
  match Unix.waitpid [] s.pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> problem "ptranc serve did not exit cleanly"

let tenant = "bench"

(* One job's trip through the service, client side. *)
type job = {
  t_submit : float;  (** submit sent → Accepted *)
  t_exec : float;  (** Accepted → the Result poll that found it done *)
  t_result : float;  (** that poll's round trip *)
  polls : int;
  requests : Proto.request list;
  responses : Proto.response list;
}

type job_outcome = Body of string * job | Refused | Failed of string | Timed_out

let poll_sleep = 0.0002
let result_races = ref 0
let job_timeout = 30.0

let run_job fd ~name ~seed p =
  let submit =
    Proto.Submit
      { tenant; job = name; runs = p.runs; seed; deadline = 0.0; source = p.source }
  in
  let t0 = now () in
  match Client.rpc fd submit with
  | Ok (Proto.Rejected _) -> Refused
  | Ok (Proto.Accepted _ as acc) ->
      let t_submit = since t0 in
      let t1 = now () in
      let poll = Proto.Result { tenant; job = name } in
      let rec wait polls responses =
        if since t1 > job_timeout then Timed_out
        else begin
          Unix.sleepf poll_sleep;
          let tp = now () in
          match Client.rpc fd poll with
          | Ok (Proto.Job_result { state = "done"; body = "" } as r) ->
              (* Server.handle_result reads the job's state twice, before
                 and after reading the report: a poll that races the
                 job's completion answers "done" with an empty body.  A
                 finished job always has a report, so the answer is
                 invalid: count it (reported as net.result_races) and
                 poll again. *)
              incr result_races;
              wait (polls + 1) (r :: responses)
          | Ok (Proto.Job_result { state = "done"; body } as r) ->
              let t_result = since tp in
              Body
                ( body,
                  { t_submit; t_exec = since t1 -. t_result; t_result;
                    polls = polls + 1;
                    requests = submit :: List.init (polls + 1) (fun _ -> poll);
                    responses = acc :: List.rev (r :: responses) } )
          | Ok (Proto.Job_result { state = "queued" | "running"; _ } as r) ->
              wait (polls + 1) (r :: responses)
          | Ok (Proto.Job_result { state; body }) -> Failed (state ^ ": " ^ body)
          | Ok _ -> Failed "unexpected response"
          | Error e -> Failed e
        end
      in
      wait 0 []
  | Ok _ -> Failed "unexpected response"
  | Error e -> Failed e

let describe = function
  | Body _ -> "output differs from the reference"
  | Refused -> "refused"
  | Failed e -> "failed: " ^ e
  | Timed_out -> "timed out"

let count_outcome tally ~expected = function
  | Body (body, _) when body = expected -> tally.ok <- tally.ok + 1
  | Body (body, _) ->
      if tally.mismatch = 0 then
        problem "first mismatching body (%d bytes, %d expected): %S" (String.length body)
          (String.length expected)
          (String.sub body 0 (min 300 (String.length body)));
      tally.mismatch <- tally.mismatch + 1
  | Refused -> tally.refused <- tally.refused + 1
  | Failed _ -> tally.failed <- tally.failed + 1
  | Timed_out -> tally.timed_out <- tally.timed_out + 1

(* Codec time of one job's frames: everything the client and the server
   encode and decode for it. *)
let codec_times (j : job) =
  let enc = ref 0.0 and dec = ref 0.0 in
  let time r f =
    let t0 = now () in
    let x = f () in
    r := !r +. since t0;
    x
  in
  let check_req req =
    let wire = time enc (fun () -> Proto.frame (Proto.encode_request req)) in
    match time dec (fun () -> Result.bind (Proto.unframe wire) Proto.decode_request) with
    | Ok r when r = req -> ()
    | _ -> problem "request codec round trip failed"
  in
  let check_resp resp =
    let wire = time enc (fun () -> Proto.frame (Proto.encode_response resp)) in
    match time dec (fun () -> Result.bind (Proto.unframe wire) Proto.decode_response) with
    | Ok r when r = resp -> ()
    | _ -> problem "response codec round trip failed"
  in
  List.iter check_req j.requests;
  List.iter check_resp j.responses;
  (!enc, !dec)

(* Jobs of the workload's programs, round robin, named uniquely. *)
let job_source progs =
  let progs = Array.of_list progs and n = ref 0 in
  fun () ->
    let p = progs.(!n mod Array.length progs) in
    incr n;
    (Printf.sprintf "j%d" !n, p)

(* Count job directories in a store root (shard-xx/<tenant>__<job>/). *)
let stored_jobs root =
  Array.fold_left
    (fun n shard ->
      let d = Filename.concat root shard in
      if Sys.is_directory d then n + Array.length (Sys.readdir d) else n)
    0 (Sys.readdir root)

(* ---------------- JSON output ---------------- *)

let json_float f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"

let json_list fs = "[" ^ String.concat "," (List.map json_float fs) ^ "]"

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c > 0x7e ->
          Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_string k ^ ":" ^ v) fields) ^ "}"

(* ---------------- the runs ---------------- *)

type opts = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  setup_only : bool;
  ptranc : string;
  work : string;
}

let ready () =
  print_endline "ready";
  flush stdout

(* At least this many requests per window, so the p10 has ten samples
   below it and the p90 ten above; the window is extended (up to twice)
   to reach it. *)
let min_requests = 110

let window seconds ~count =
  let t0 = now () in
  fun () ->
    let el = since t0 in
    el < seconds || (count () < min_requests && el < 2.0 *. seconds)

let digest reports = Digest.to_hex (Digest.string (String.concat "" reports))

(* Reference output and cross-backend cycle check, outside the window:
   the Tree backend is the repo's reference oracle. *)
let batch_reference ~seed progs ~timed_cycles =
  let ref_runs = List.map (fun p -> estimate ~backend:Interp.Tree ~seed p) progs in
  let bc_cycles =
    List.map (fun p -> snd (estimate ~backend:Interp.Bytecode ~seed p)) progs
  in
  List.iteri
    (fun i ((_, tree_c), bc_c) ->
      let c = List.nth timed_cycles i in
      if tree_c <> c || bc_c <> c then
        problem "simulated cycles differ across backends (program %d)" i)
    (List.combine ref_runs bc_cycles);
  digest (List.map fst ref_runs)

(* Smart-counter overhead in simulated cycles: instrumented over
   uninstrumented, same seeds, minus 1. *)
let probe_overhead ~seed progs ~timed_cycles =
  let instr = ref 0.0 and plain = ref 0.0 in
  List.iteri
    (fun i p ->
      let t = Pipeline.of_source p.source in
      instr := !instr +. (List.nth timed_cycles i *. float p.runs);
      for r = 0 to p.runs - 1 do
        let vm = Pipeline.run_once ~seed:(seed + r) t in
        plain := !plain +. float (Interp.cycles vm)
      done)
    progs;
  (!instr /. !plain) -. 1.0

type e2e = {
  lat : float list;  (** latency of each successful request *)
  tl : tally;
  window_s : float;
  rss : float;  (** peak RSS of the process doing the work, MB *)
  overhead : float;  (** probe overhead in simulated cycles *)
  setup : float list;  (** set-up samples measured here (serve only) *)
}

let batch_e2e o progs =
  let request () = List.map (fun p -> estimate ~seed:o.seed p) progs in
  let first = request () in
  ready ();
  if not o.setup_only then begin
    let timed_cycles = List.map snd first in
    let got = digest (List.map fst first) in
    let tl = tally () and lat = ref [] in
    let w0 = now () in
    let more = window o.seconds ~count:(fun () -> tl.attempted) in
    while more () do
      tl.attempted <- tl.attempted + 1;
      let t0 = now () in
      match request () with
      | reports ->
          lat := since t0 :: !lat;
          if digest (List.map fst reports) = got then tl.ok <- tl.ok + 1
          else tl.mismatch <- tl.mismatch + 1
      | exception _ -> tl.failed <- tl.failed + 1
    done;
    let window_s = since w0 in
    let rss = max_rss_mb "self" in
    let expected = batch_reference ~seed:o.seed progs ~timed_cycles in
    (* every request matched the first; all of them are wrong when the
       first differs from the reference *)
    if got <> expected then begin
      tl.mismatch <- tl.mismatch + tl.ok;
      tl.ok <- 0
    end;
    Some
      { lat = List.rev !lat; tl; window_s; rss;
        overhead = probe_overhead ~seed:o.seed progs ~timed_cycles; setup = [] }
  end
  else None

(* Fill a fresh store with [n] finished jobs, then restart the server
   over it [k] times: spawn → listening (store recovery included) and
   spawn → first submit accepted (the service's set-up time). *)
let restarts o progs ~n ~k ~on_job =
  let store = Filename.concat o.work "store-restart" in
  let log = Filename.concat o.work "serve-restart.log" in
  let s = start_server ~ptranc:o.ptranc ~log ~retain:"-1" store in
  let fd = Client.connect ~port:s.port () in
  let next = job_source progs in
  for _ = 1 to n do
    let name, p = next () in
    on_job p (run_job fd ~name ~seed:o.seed p)
  done;
  Client.close fd;
  stop_server s;
  let jobs = stored_jobs store in
  let samples =
    List.init k (fun i ->
        let t0 = now () in
        let s = start_server ~ptranc:o.ptranc ~log ~retain:"-1" store in
        let listening = since t0 in
        let fd = Client.connect ~port:s.port () in
        let name = Printf.sprintf "restart%d" i and p = List.hd progs in
        let accepted =
          match
            Client.rpc fd
              (Proto.Submit
                 { tenant; job = name; runs = p.runs; seed = o.seed; deadline = 0.0;
                   source = p.source })
          with
          | Ok (Proto.Accepted _) -> since t0
          | _ ->
              problem "restarted server refused its first job";
              nan
        in
        (* let the job finish so the next restart sees a quiet store *)
        on_job p (run_job fd ~name ~seed:o.seed p);
        Client.close fd;
        stop_server s;
        (listening, accepted))
  in
  (jobs, samples)

let serve_e2e o progs =
  let p = List.hd progs in
  let expected = served_report ~backend:Interp.Tree ~seed:o.seed p in
  let tl = tally () in
  let check _ out = count_outcome tl ~expected out in
  let _, samples = restarts o progs ~n:200 ~k:5 ~on_job:check in
  let setup = List.map snd samples in
  let store = Filename.concat o.work "store-main" in
  let s =
    start_server ~ptranc:o.ptranc ~log:(Filename.concat o.work "serve-main.log")
      ~retain:"0.5" store
  in
  let fd = Client.connect ~port:s.port () in
  let next = job_source progs in
  for _ = 1 to 20 do
    let name, p = next () in
    check () (run_job fd ~name ~seed:o.seed p)
  done;
  (* the warm-up and restart jobs are checked but not counted *)
  let warm_bad = tl.mismatch + tl.refused + tl.failed + tl.timed_out in
  if warm_bad > 0 then problem "%d warm-up jobs failed" warm_bad;
  let tl = tally () and lat = ref [] in
  let w0 = now () in
  let more = window o.seconds ~count:(fun () -> tl.attempted) in
  while more () do
    tl.attempted <- tl.attempted + 1;
    let name, p = next () in
    let t0 = now () in
    let out = run_job fd ~name ~seed:o.seed p in
    (match out with Body _ -> lat := since t0 :: !lat | _ -> ());
    count_outcome tl ~expected out
  done;
  let window_s = since w0 in
  let rss = max_rss_mb (string_of_int s.pid) in
  Client.close fd;
  stop_server s;
  let t = Pipeline.of_source p.source in
  let prof = Pipeline.profile_smart ~runs:p.runs ~seed:o.seed t in
  Some
    { lat = List.rev !lat; tl; window_s; rss;
      overhead =
        probe_overhead ~seed:o.seed progs ~timed_cycles:[ prof.Pipeline.avg_cycles ];
      setup }

(* ---- traced runs ---- *)

type trace = {
  reqs : acc list ref;  (** per-request layer sums *)
  traced : float list ref;  (** latency of traced requests *)
  untraced : float list ref;  (** latency of interleaved untraced ones *)
  net : acc list ref;  (** per-job RPC phases and codec times *)
}

(* Library chain: traced and untraced requests alternate, so the
   tracing overhead is measured under the same host conditions. *)
let trace_chain o progs tr ~seconds =
  let expected = digest (List.map fst (List.map (estimate ~seed:o.seed) progs)) in
  let t0 = now () and i = ref 0 in
  while since t0 < seconds || List.length !(tr.traced) < 5 do
    incr i;
    let t1 = now () in
    if !i mod 2 = 0 then begin
      ignore (List.map (estimate ~seed:o.seed) progs);
      tr.untraced := since t1 :: !(tr.untraced)
    end
    else begin
      let acc = Hashtbl.create 32 in
      let reports = List.map (fun p -> fst (estimate_traced acc ~seed:o.seed p)) progs in
      let wall = since t1 in
      tr.traced := wall :: !(tr.traced);
      add acc "wall_s" wall;
      tr.reqs := acc :: !(tr.reqs);
      if digest reports <> expected then
        problem "traced request's report differs from the untraced one"
    end
  done

let record_job tr ~wall (j : job) =
  let acc = Hashtbl.create 8 in
  add acc "net.submit_s" j.t_submit;
  add acc "net.exec_s" j.t_exec;
  add acc "net.result_s" j.t_result;
  add acc "net.polls_per_job" (float j.polls);
  add acc "net.wall_s" wall;
  let enc, dec = codec_times j in
  add acc "proto.encode_s" enc;
  add acc "proto.decode_s" dec;
  tr.net := acc :: !(tr.net)

let batch_trace o progs =
  let tr = { reqs = ref []; traced = ref []; untraced = ref []; net = ref [] } in
  ignore (List.map (estimate ~seed:o.seed) progs);
  trace_chain o progs tr ~seconds:(0.8 *. o.seconds);
  (* the service layers, on this workload's own jobs: served once per
     program a few times over, then the store restarted over them *)
  let expected = List.map (fun p -> (p, served_report ~seed:o.seed p)) progs in
  let on_job p = function
    | Body (body, j) when body = List.assq p expected ->
        record_job tr ~wall:(j.t_submit +. j.t_exec +. j.t_result) j
    | out -> problem "served job: %s" (describe out)
  in
  let jobs, samples = restarts o progs ~n:(4 * List.length progs) ~k:3 ~on_job in
  (tr, jobs, samples)

let serve_trace o progs =
  let tr = { reqs = ref []; traced = ref []; untraced = ref []; net = ref [] } in
  let p = List.hd progs in
  let expected = served_report ~seed:o.seed p in
  let ok = function Body (body, _) -> body = expected | _ -> false in
  let store = Filename.concat o.work "store-main" in
  let s =
    start_server ~ptranc:o.ptranc ~log:(Filename.concat o.work "serve-main.log")
      ~retain:"0.5" store
  in
  let fd = Client.connect ~port:s.port () in
  let next = job_source progs in
  for _ = 1 to 20 do
    let name, p = next () in
    if not (ok (run_job fd ~name ~seed:o.seed p)) then problem "warm-up job failed"
  done;
  let t0 = now () and i = ref 0 in
  while since t0 < 0.7 *. o.seconds || List.length !(tr.net) < min_requests do
    incr i;
    let name, p = next () in
    let t1 = now () in
    let out = run_job fd ~name ~seed:o.seed p in
    let wall = since t1 in
    (match out with
    | Body (_, j) when ok out ->
        if !i mod 2 = 0 then tr.untraced := wall :: !(tr.untraced)
        else begin
          tr.traced := wall :: !(tr.traced);
          record_job tr ~wall j
        end
    | out -> problem "served job: %s" (describe out))
  done;
  Client.close fd;
  stop_server s;
  (* the library layers of the served job; the overhead reported for
     serve is the service loop's, so these requests' latencies are dropped *)
  trace_chain o progs { tr with traced = ref []; untraced = ref [] }
    ~seconds:(0.15 *. o.seconds);
  let on_job _ out = if not (ok out) then problem "served job: %s" (describe out) in
  let jobs, samples = restarts o progs ~n:200 ~k:3 ~on_job in
  (tr, jobs, samples)

(* ---------------- main ---------------- *)

let per_request key accs =
  List.filter_map (fun acc -> Hashtbl.find_opt acc key) accs

let layer_keys =
  [ "frontend.busy_s"; "frontend.alloc_mwords"; "frontend.cfg_nodes";
    "analysis.busy_s"; "analysis.alloc_mwords"; "analysis.ecfg_nodes";
    "placement.busy_s"; "placement.alloc_mwords"; "placement.counters";
    "vm.compile_s"; "vm.run_s"; "vm.alloc_mwords"; "vm.sim_cycles";
    "reconstruct.busy_s"; "estimate.busy_s"; "estimate.alloc_mwords";
    "report.busy_s"; "report.bytes"; "spans_s"; "wall_s" ]

let net_keys =
  [ "net.submit_s"; "net.exec_s"; "net.result_s"; "net.polls_per_job"; "net.wall_s";
    "proto.encode_s"; "proto.decode_s" ]

let tally_json tl =
  json_obj
    [ ("attempted", string_of_int tl.attempted); ("ok", string_of_int tl.ok);
      ("mismatch", string_of_int tl.mismatch); ("refused", string_of_int tl.refused);
      ("failed", string_of_int tl.failed); ("timed_out", string_of_int tl.timed_out) ]

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref false
  and setup_only = ref false and ptranc = ref "" and work = ref "" in
  Arg.parse
    [ ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_float seconds, "S measured window");
      ("--trace", Arg.Set trace, " per-layer traced run");
      ("--setup-only", Arg.Set setup_only, " exit after the first request");
      ("--ptranc", Arg.Set_string ptranc, "PATH ptranc executable");
      ("--work", Arg.Set_string work, "DIR scratch directory for stores") ]
    (fun w -> workload := w)
    "pbench.exe WORKLOAD [options]";
  { workload = !workload; seed = !seed; seconds = !seconds; trace = !trace;
    setup_only = !setup_only; ptranc = !ptranc; work = !work }

let () =
  let o = parse_args () in
  let progs = programs o.workload in
  let fields =
    if not o.trace then
      match if o.workload = "serve" then serve_e2e o progs else batch_e2e o progs with
      | None -> None
      | Some r ->
          Some
            [ ("latencies", json_list r.lat); ("tally", tally_json r.tl);
              ("window_s", json_float r.window_s); ("max_rss_mb", json_float r.rss);
              ("probe_overhead", json_float r.overhead); ("setup_s", json_list r.setup);
              ("result_races", string_of_int !result_races) ]
    else
        let tr, jobs, samples =
          if o.workload = "serve" then serve_trace o progs else batch_trace o progs
        in
        let lists keys accs = List.map (fun k -> (k, json_list (per_request k accs))) keys in
        Some
          (lists layer_keys !(tr.reqs)
          @ lists net_keys !(tr.net)
          @ [ ("traced", json_list !(tr.traced)); ("untraced", json_list !(tr.untraced));
              ("store.recover_s", json_list (List.map fst samples));
              ("store.jobs_recovered", json_float (float jobs));
              ("net.result_races", string_of_int !result_races) ])
  in
  match fields with
  | None -> ()
  | Some fields ->
      print_endline
        (json_obj
           (fields
           @ [ ("problems", "[" ^ String.concat "," (List.map json_string !problems) ^ "]") ]))
