type t = {
  registry : Registry.t;
  trace : Trace.t;
  timers : Timer.t;
  enabled : bool;
}

let disabled =
  {
    registry = Registry.create ();
    trace = Trace.null;
    timers = Timer.create ();
    enabled = false;
  }

let create ?(trace = Trace.null) () =
  { registry = Registry.create (); trace = trace; timers = Timer.create (); enabled = true }

let on t = t.enabled

let registry t = t.registry

let trace t = t.trace

let timers t = t.timers

let phase t name f = if t.enabled then Timer.time t.timers name f else f ()

let fork t = if t.enabled then create ~trace:t.trace () else disabled

let merge ~into src =
  if into.enabled && src.enabled then begin
    Registry.merge ~into:into.registry src.registry;
    Timer.merge ~into:into.timers src.timers
  end

let to_json t = Obs_json.Obj [ ("metrics", Registry.to_json t.registry) ]

let write_json_file t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Obs_json.to_string_pretty (to_json t)))

