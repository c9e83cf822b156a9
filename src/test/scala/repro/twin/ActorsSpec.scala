package repro.twin

import org.scalatest.funsuite.AnyFunSuite
import scala.collection.mutable

class ActorsSpec extends AnyFunSuite {

  private class Recorder extends Actor {
    val got = mutable.Buffer.empty[Any]
    override def receive(ctx: ActorContext, msg: Any): Unit = got += msg
  }

  test("message delivery to a single actor") {
    val sys = new ActorSystem("t")
    val rec = new Recorder
    val ref = sys.actorOf("a", () => rec)
    sys.send(ref, "hello")
    sys.dispatchAll()
    assert(rec.got.toSeq == Seq("hello"))
  }

  test("messages are processed in FIFO order") {
    val sys = new ActorSystem("t")
    val rec = new Recorder
    val ref = sys.actorOf("a", () => rec)
    (1 to 50).foreach(i => sys.send(ref, i))
    sys.dispatchAll()
    assert(rec.got.toSeq == (1 to 50))
  }

  test("actors can send to each other during dispatch") {
    val sys = new ActorSystem("t")
    val rec = new Recorder
    val sink = sys.actorOf("sink", () => rec)
    val fwd = sys.actorOf("fwd", () => new Actor {
      override def receive(ctx: ActorContext, msg: Any): Unit = ctx.send(sink, msg)
    })
    sys.send(fwd, "ping")
    sys.dispatchAll()
    assert(rec.got.toSeq == Seq("ping"))
  }

  test("hierarchy: spawn registers parent and children") {
    val sys = new ActorSystem("t")
    var childRef: ActorRef = null
    val parent = sys.actorOf("p", () => new Actor {
      override def receive(ctx: ActorContext, msg: Any): Unit =
        if (msg == "spawn") childRef = ctx.spawn("c", () => new Recorder)
    })
    sys.send(parent, "spawn")
    sys.dispatchAll()
    assert(childRef != null)
    assert(childRef.path == "/p/c")
    assert(sys.parentOf(childRef).contains(parent))
    assert(sys.childrenOf(parent) == Seq(childRef))
  }

  test("supervision: failing actor is restarted and parent notified") {
    val sys = new ActorSystem("t")
    val failures = mutable.Buffer.empty[ChildFailed]
    var child: ActorRef = null
    val parent = sys.actorOf("p", () => new Actor {
      override def receive(ctx: ActorContext, msg: Any): Unit = msg match {
        case "spawn" => child = ctx.spawn("boom", () => new Actor {
          override def receive(ctx2: ActorContext, m: Any): Unit =
            if (m == "die") throw new RuntimeException("boom") else ()
        })
        case f: ChildFailed => failures += f
        case _ =>
      }
    })
    sys.send(parent, "spawn"); sys.dispatchAll()
    sys.send(child, "die"); sys.dispatchAll()
    assert(failures.size == 1)
    assert(failures.head.child == child)
    sys.send(child, "ok"); sys.dispatchAll()
    assert(sys.deadLetters == 0, "restarted, not stopped")
  }

  test("restarted actor resets its behavior state") {
    val sys = new ActorSystem("t")
    val counts = mutable.Buffer.empty[Int]
    val ref = sys.actorOf("c", () => new Actor {
      var n = 0
      override def receive(ctx: ActorContext, msg: Any): Unit = msg match {
        case "inc" => n += 1
        case "read" => counts += n
        case "die" => throw new RuntimeException("x")
      }
    })
    sys.send(ref, "inc"); sys.send(ref, "inc"); sys.send(ref, "read")
    sys.send(ref, "die"); sys.send(ref, "read")
    sys.dispatchAll()
    assert(counts.toSeq == Seq(2, 0))
  }

  test("stop removes the actor and its subtree; messages go to dead letters") {
    val sys = new ActorSystem("t")
    var child: ActorRef = null
    val parent = sys.actorOf("p", () => new Actor {
      override def receive(ctx: ActorContext, msg: Any): Unit =
        if (msg == "spawn") child = ctx.spawn("c", () => new Recorder)
    })
    sys.send(parent, "spawn"); sys.dispatchAll()
    sys.stop(parent)
    sys.send(parent, "late"); sys.send(child, "late"); sys.dispatchAll()
    assert(sys.deadLetters == 2)
  }

  test("duplicate actor names under the same parent are rejected") {
    val sys = new ActorSystem("t")
    sys.actorOf("a", () => new Recorder)
    intercept[IllegalArgumentException](sys.actorOf("a", () => new Recorder))
  }

  test("same name under different parents is fine") {
    val sys = new ActorSystem("t")
    val p1 = sys.actorOf("p1", () => new Recorder)
    val p2 = sys.actorOf("p2", () => new Recorder)
    val c1 = sys.actorOf("c", () => new Recorder, Some(p1))
    val c2 = sys.actorOf("c", () => new Recorder, Some(p2))
    assert(c1.path != c2.path)
  }

  test("dispatchAll counts processed messages and guards against loops") {
    val sys = new ActorSystem("t")
    lazy val ref: ActorRef = sys.actorOf("loop", () => new Actor {
      override def receive(ctx: ActorContext, msg: Any): Unit = ctx.send(ref, msg)
    })
    sys.send(ref, "go")
    val processed = sys.dispatchAll(maxMessages = 1000)
    assert(processed == 1000, "loop guard kicks in")
  }

  test("delivered counter tracks successful deliveries") {
    val sys = new ActorSystem("t")
    val ref = sys.actorOf("a", () => new Recorder)
    (1 to 5).foreach(i => sys.send(ref, i))
    sys.dispatchAll()
    assert(sys.delivered == 5)
  }

  test("send is thread-safe under concurrent producers") {
    val sys = new ActorSystem("t")
    val rec = new Recorder
    val ref = sys.actorOf("a", () => rec)
    val threads = (1 to 4).map(t => new Thread(() =>
      (1 to 100).foreach(i => sys.send(ref, (t, i)))))
    threads.foreach(_.start()); threads.foreach(_.join())
    sys.dispatchAll()
    assert(rec.got.size == 400)
  }
}
