//! `atsched client` — talk to a running solve service — and
//! `atsched amend` — drive an incremental session end to end.
//!
//! `atsched client ADDR VERB ...`; every service failure maps to a
//! nonzero exit code with the typed error kind on stderr.

use atsched_serve::{Client, ClientError, DeltaSpec, Request, SolveReply};

pub(crate) fn cmd_client(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or("client needs ADDR (host:port) and a verb")?;
    let verb = args.get(1).map(String::as_str).ok_or("client needs a verb after ADDR")?;
    let rest = &args[2..];
    crate::check_flags(&format!("client {verb}"), rest)?;
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("connecting to {addr}: {e}"))?;
    match verb {
        "solve" => cmd_solve(&mut client, rest),
        "batch" => cmd_batch(&mut client, rest),
        "open" => {
            let path = rest.first().ok_or("client open needs an instance file")?;
            let inst = crate::load(path)?;
            let (session, reply) = client.open(&inst).map_err(render)?;
            print_session_reply("opened", session, &reply);
            Ok(())
        }
        "amend" => {
            let session: u64 = rest
                .first()
                .ok_or("client amend needs SESSION and a delta")?
                .parse()
                .map_err(|_| "SESSION must be the numeric id `open` printed".to_string())?;
            let delta = load_delta(
                rest.get(1).map(String::as_str).ok_or("client amend needs a delta file")?,
            )?;
            let reply = client.amend(session, &delta).map_err(render)?;
            print_session_reply("amended", session, &reply);
            Ok(())
        }
        "close" => {
            let session: u64 = rest
                .first()
                .ok_or("client close needs SESSION")?
                .parse()
                .map_err(|_| "SESSION must be the numeric id `open` printed".to_string())?;
            client.close(session).map_err(render)?;
            println!("session {session} closed");
            Ok(())
        }
        "stats" => {
            let stats = client.stats().map_err(render)?;
            println!("{}", serde_json::to_string_pretty(&stats).map_err(|e| e.to_string())?);
            Ok(())
        }
        "metrics" => {
            let text = client.metrics().map_err(render)?;
            print!("{text}");
            Ok(())
        }
        "health" => {
            client.health().map_err(render)?;
            println!("ok");
            Ok(())
        }
        "shutdown" => {
            let snapshot = client.shutdown().map_err(render)?;
            println!("{}", serde_json::to_string_pretty(&snapshot).map_err(|e| e.to_string())?);
            eprintln!(
                "server drained: {} completed of {} accepted",
                snapshot.completed, snapshot.accepted
            );
            Ok(())
        }
        _ => unreachable!("check_flags admits only the verbs above"),
    }
}

/// `atsched amend ADDR INSTANCE --delta FILE [--delta FILE ...]` — the
/// one-shot session flow: open, apply each delta in order, close
/// (unless `--keep-open`, which prints the session id for later
/// `atsched client ADDR amend SESSION ...` calls).
pub(crate) fn cmd_amend(args: &[String]) -> Result<(), String> {
    let addr = args.first().ok_or("amend needs ADDR (host:port) and an instance file")?;
    let path = args.get(1).ok_or("amend needs an instance file after ADDR")?;
    let mut deltas = Vec::new();
    let mut i = 2;
    while i < args.len() {
        if args[i] == "--delta" {
            let file = args.get(i + 1).ok_or("--delta needs a file")?;
            deltas.push(load_delta(file)?);
            i += 2;
        } else {
            i += 1;
        }
    }
    if deltas.is_empty() {
        return Err("amend needs at least one --delta FILE".into());
    }
    let inst = crate::load(path)?;
    let mut client =
        Client::connect(addr.as_str()).map_err(|e| format!("connecting to {addr}: {e}"))?;
    let (session, reply) = client.open(&inst).map_err(render)?;
    print_session_reply("opened", session, &reply);
    for (step, delta) in deltas.iter().enumerate() {
        let reply = client.amend(session, delta).map_err(render)?;
        print_session_reply(&format!("amend #{}", step + 1), session, &reply);
    }
    if crate::has_flag(args, "--keep-open") {
        eprintln!(
            "session {session} left open (close with `atsched client {addr} close {session}`)"
        );
    } else {
        client.close(session).map_err(render)?;
    }
    Ok(())
}

/// A delta file holds a [`DeltaSpec`] as JSON:
/// `{"add":[{"release":..,"deadline":..,"processing":..}],"remove":[ID..],"modify":[{"job":ID,"release":..,"deadline":..}]}`.
fn load_delta(path: &str) -> Result<DeltaSpec, String> {
    let body = std::fs::read_to_string(path).map_err(|e| format!("loading {path}: {e}"))?;
    let spec: DeltaSpec =
        serde_json::from_str(&body).map_err(|e| format!("parsing {path}: {e}"))?;
    if spec.is_empty() {
        return Err(format!("{path} holds an empty delta (no add/remove/modify ops)"));
    }
    Ok(spec)
}

fn print_session_reply(what: &str, session: u64, reply: &SolveReply) {
    println!(
        "{what}: session {session}, {} active slots, {}{:.2} ms",
        reply.active_slots,
        if reply.cached { "cached, " } else { "" },
        reply.elapsed_ms,
    );
}

fn render(e: ClientError) -> String {
    e.to_string()
}

fn cmd_solve(client: &mut Client, args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("client solve needs an instance file")?;
    let inst = crate::load(path)?;
    let mut req = Request::solve(&inst);
    if let Some(method) = crate::flag_value(args, "--method") {
        req = req.with_method(method);
    }
    if let Some(lp) = crate::flag_value(args, "--lp") {
        req = req.with_lp(lp.parse()?);
    }
    if crate::has_flag(args, "--polish") {
        req = req.with_polish(true);
    }
    if let Some(seed) = crate::parse_opt(args, "--seed")? {
        req = req.with_seed(seed);
    }
    if let Some(shard) = crate::flag_value(args, "--shard") {
        req = req.with_shard(shard);
    }
    if let Some(ms) = crate::parse_opt(args, "--timeout-ms")? {
        req = req.with_timeout_ms(ms);
    }
    let want_schedule = crate::flag_value(args, "--schedule");
    if want_schedule.is_some() {
        req = req.with_schedule();
    }
    let reply = client.solve(req).map_err(render)?;
    println!("active slots : {}", reply.active_slots);
    println!("method       : {}", reply.method);
    if let Some(ratio) = reply.certified_ratio {
        println!("ALG/LP       : {ratio:.4}");
    }
    println!("cached       : {}", reply.cached);
    println!("elapsed      : {:.2} ms", reply.elapsed_ms);
    if let Some(out) = want_schedule {
        let schedule = reply.schedule.ok_or("server reply carried no schedule")?;
        let json = serde_json::to_string_pretty(&schedule).map_err(|e| e.to_string())?;
        std::fs::write(out, json).map_err(|e| e.to_string())?;
        eprintln!("schedule written to {out}");
    }
    Ok(())
}

fn cmd_batch(client: &mut Client, args: &[String]) -> Result<(), String> {
    let paths: Vec<&String> = args.iter().take_while(|a| !a.starts_with("--")).collect();
    if paths.is_empty() {
        return Err("client batch needs instance files".into());
    }
    let mut instances = Vec::with_capacity(paths.len());
    for path in paths {
        instances.push(crate::load(path)?);
    }
    let reply = client.batch(&instances).map_err(render)?;
    println!("{}", serde_json::to_string_pretty(&reply).map_err(|e| e.to_string())?);
    eprintln!(
        "batch: {} instances, {} solved, {} infeasible, {} timed out, {} failed",
        reply.total, reply.solved, reply.infeasible, reply.timed_out, reply.failed
    );
    // Same contract as the local `atsched batch`: lost work is a
    // nonzero exit.
    let lost = reply.timed_out + reply.failed;
    if lost > 0 {
        return Err(format!("{lost} of {} instances did not finish", reply.total));
    }
    Ok(())
}
