package repro.twin

import scala.collection.mutable

/** Minimal actor runtime in the spirit of Hewitt's actor model [4] and the
  * Akka framework the paper's dataport is built on (§2.3): actors are
  * independent, supervised processes that encapsulate data and control logic
  * and communicate via messages.
  *
  * Akka is not available in the offline jar set, so this runtime provides
  * the semantics the dataport needs: per-actor mailboxes, a hierarchical
  * parent/child tree, location-transparent refs, and supervision (a throwing
  * actor is restarted from its factory and its parent is notified with
  * [[ChildFailed]]). Dispatch is an explicit run-to-quiescence loop —
  * deterministic and therefore testable; `send` is thread-safe.
  */
trait Actor {
  def receive(ctx: ActorContext, msg: Any): Unit
}

/** Handle to an actor; stable across restarts. */
final class ActorRef private[twin] (val path: String) {
  override def toString: String = s"ActorRef($path)"
}

/** Sent to a parent when a child's receive threw and the child was restarted. */
final case class ChildFailed(child: ActorRef, error: Throwable)

final class ActorContext private[twin] (val system: ActorSystem, val self: ActorRef) {
  def parent: Option[ActorRef] = system.parentOf(self)
  def children: Seq[ActorRef] = system.childrenOf(self)
  def send(to: ActorRef, msg: Any): Unit = system.send(to, msg)
  def spawn(name: String, factory: () => Actor): ActorRef =
    system.actorOf(name, factory, Some(self))
  def stop(ref: ActorRef): Unit = system.stop(ref)
}

object ActorSystem {
  private final case class Cell(ref: ActorRef, factory: () => Actor,
                                var behavior: Actor, parent: Option[ActorRef],
                                children: mutable.LinkedHashSet[ActorRef])
}

final class ActorSystem(val name: String) {

  import ActorSystem.Cell

  private val cells = mutable.LinkedHashMap.empty[String, Cell]
  private val mailbox = mutable.Queue.empty[(ActorRef, Any)]
  private var deliveredCount = 0L
  private var deadLetterCount = 0L

  /** Create an actor; `name` is path-scoped under its parent. */
  def actorOf(name: String, factory: () => Actor,
              parent: Option[ActorRef] = None): ActorRef = synchronized {
    val path = parent.map(_.path + "/" + name).getOrElse("/" + name)
    require(!cells.contains(path), s"actor exists: $path")
    val ref = new ActorRef(path)
    cells(path) = Cell(ref, factory, factory(), parent, mutable.LinkedHashSet.empty)
    parent.foreach(p => cells(p.path).children += ref)
    ref
  }

  def parentOf(ref: ActorRef): Option[ActorRef] = synchronized(cells.get(ref.path).flatMap(_.parent))
  def childrenOf(ref: ActorRef): Seq[ActorRef] = synchronized(
    cells.get(ref.path).map(_.children.toSeq).getOrElse(Seq.empty))
  def delivered: Long = synchronized(deliveredCount)
  def deadLetters: Long = synchronized(deadLetterCount)

  /** Enqueue a message (thread-safe; does not dispatch). */
  def send(to: ActorRef, msg: Any): Unit = synchronized { mailbox.enqueue((to, msg)) }

  /** Stop an actor and, recursively, its children. */
  def stop(ref: ActorRef): Unit = synchronized {
    cells.get(ref.path).foreach { cell =>
      cell.children.toSeq.foreach(stop)
      cell.parent.foreach(p => cells.get(p.path).foreach(_.children -= ref))
      cells.remove(ref.path)
    }
  }

  /** Process messages until the system is quiescent (or `maxMessages` is
    * hit — a guard against message loops). Returns messages processed.
    */
  def dispatchAll(maxMessages: Long = 10_000_000L): Long = {
    var processed = 0L
    while (processed < maxMessages) {
      val next = synchronized {
        if (mailbox.isEmpty) None else Some(mailbox.dequeue())
      }
      next match {
        case None => return processed
        case Some((ref, msg)) =>
          processed += 1
          val cellOpt = synchronized(cells.get(ref.path))
          cellOpt match {
            case None => synchronized { deadLetterCount += 1 }
            case Some(cell) =>
              synchronized { deliveredCount += 1 }
              try cell.behavior.receive(new ActorContext(this, cell.ref), msg)
              catch {
                case e: Exception =>
                  // Supervision: restart from factory, notify the parent.
                  synchronized { cell.behavior = cell.factory() }
                  cell.parent.foreach(p => send(p, ChildFailed(cell.ref, e)))
              }
          }
      }
    }
    processed
  }
}
